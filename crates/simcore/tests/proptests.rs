//! Property-based tests for the simulation substrate.

use geodns_simcore::dist::{
    Discrete, Distribution, Empirical, Exponential, Geometric, Uniform, Zipf, ZipfAlias,
};
use geodns_simcore::stats::{Cdf, Histogram, P2Quantile, Tally};
use geodns_simcore::{
    CalendarQueue, Engine, EventQueue, HeapQueue, QueueKind, RngStreams, SimTime,
};
use proptest::prelude::*;

/// One step of a random queue workload: push an event at the given offset
/// from the current maximum time, or pop.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    Push(f64),
    Pop,
}

fn queue_ops(len: usize) -> impl Strategy<Value = Vec<QueueOp>> {
    // Mostly pushes with a wide mix of deltas: ties (0.0), short hops, and
    // far-future jumps that land a calendar year or more ahead of the
    // cursor; one pop in three.
    prop::collection::vec(
        (0u8..6, 0.0f64..50.0).prop_map(|(kind, x)| match kind {
            0 => QueueOp::Push(0.0),
            1 => QueueOp::Push(x),
            2 => QueueOp::Push(x * 100.0),
            3 => QueueOp::Push(x * 10_000.0),
            _ => QueueOp::Pop,
        }),
        1..len,
    )
}

/// One step of an engine-shaped queue workload: a push relative to the
/// last popped time, or a pop.
#[derive(Debug, Clone, Copy)]
enum EngineOp {
    /// `last + delta`: µs-scale deltas like departures, seconds-scale ones
    /// like think times, and zero for exact ties.
    After(f64),
    /// `last - delta`: below the calendar's cursor, which must move back.
    Before(f64),
    Pop,
}

fn engine_ops(len: usize) -> impl Strategy<Value = Vec<EngineOp>> {
    prop::collection::vec(
        (0u8..8, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
            0 | 1 => EngineOp::After(x * 1e-4),
            2 | 3 => EngineOp::After(x * 30.0),
            4 => EngineOp::After(0.0),
            5 => EngineOp::Before(x * 5.0),
            _ => EngineOp::Pop,
        }),
        1..len,
    )
}

/// One step of a timer-slot workload against an [`Engine`].
#[derive(Debug, Clone, Copy)]
enum SlotOp {
    /// Arm slot `n mod S` after a delay; arming an armed slot falls back
    /// to the event list.
    Arm(usize, f64),
    /// Schedule on the event list after a delay.
    Push(f64),
    Step,
    /// `step_before(now + delta)`.
    StepBefore(f64),
    /// `step_before` the oracle's head time: an event exactly at the
    /// barrier must stay pending.
    StepBeforeHead,
    /// Compare `pending` and `next_event_time`.
    Peek,
    Clear,
}

fn slot_ops(len: usize) -> impl Strategy<Value = Vec<SlotOp>> {
    // Delays on a 1/4 s grid half the time, so slot and list events tie
    // on time often, and zero delays tie with the clock itself.
    prop::collection::vec(
        (0u8..16, 0usize..12, 0.0f64..2.0).prop_map(|(kind, n, x)| {
            let delay = match n % 3 {
                0 => 0.0,
                1 => (x * 4.0).floor() / 4.0,
                _ => x,
            };
            match kind {
                0..=4 => SlotOp::Arm(n, delay),
                5..=7 => SlotOp::Push(delay),
                8..=11 => SlotOp::Step,
                12 => SlotOp::StepBefore(delay),
                13 => SlotOp::StepBeforeHead,
                14 => SlotOp::Peek,
                _ => SlotOp::Clear,
            }
        }),
        1..len,
    )
}

proptest! {
    /// An engine with S timer slots against a heap that receives every
    /// event through `push`, under both queue kinds: slot events draw
    /// their seq from the engine's list, so the two must deliver the
    /// identical `(time, event)` sequence, whether an event went into a
    /// slot, into the list, or into the list because its slot was armed.
    #[test]
    fn engine_slots_match_a_heap_given_every_event(
        slots in 1usize..12,
        prefill in prop::collection::vec(0.0f64..5.0, 0..64),
        ops in slot_ops(400),
    ) {
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let mut eng = Engine::with_kind(kind).with_timer_slots(slots);
            let mut oracle = HeapQueue::new();
            let mut id = 0u64;
            for &delay in &prefill {
                eng.schedule_in(delay, id);
                oracle.push(SimTime::from_secs(delay), id);
                id += 1;
            }
            for op in &ops {
                let now = eng.now();
                match *op {
                    SlotOp::Arm(n, delay) => {
                        eng.arm_in(n % slots, delay, id);
                        oracle.push(now + delay, id);
                        id += 1;
                    }
                    SlotOp::Push(delay) => {
                        eng.schedule_in(delay, id);
                        oracle.push(now + delay, id);
                        id += 1;
                    }
                    SlotOp::Step => {
                        prop_assert_eq!(eng.step(), oracle.pop(), "step under {:?}", kind);
                    }
                    SlotOp::StepBefore(delta) => {
                        let until = now + delta;
                        let expect = if oracle.peek_time().is_some_and(|t| t < until) {
                            oracle.pop()
                        } else {
                            None
                        };
                        prop_assert_eq!(eng.step_before(until), expect, "step_before under {:?}", kind);
                    }
                    SlotOp::StepBeforeHead => {
                        if let Some(head) = oracle.peek_time() {
                            prop_assert_eq!(eng.step_before(head), None, "barrier event ran under {:?}", kind);
                        }
                    }
                    SlotOp::Peek => {
                        prop_assert_eq!(eng.pending(), oracle.len(), "pending under {:?}", kind);
                        prop_assert_eq!(eng.next_event_time(), oracle.peek_time(), "next under {:?}", kind);
                    }
                    SlotOp::Clear => {
                        eng.clear_pending();
                        oracle.clear();
                    }
                }
                prop_assert!(eng.now() >= now, "clock went backwards");
            }
            loop {
                let delivered = eng.step();
                prop_assert_eq!(delivered, oracle.pop(), "drain under {:?}", kind);
                if delivered.is_none() {
                    break;
                }
            }
            prop_assert_eq!(eng.pending(), 0);
        }
    }

    /// Pushes anchored at the last *popped* time, the way the simulator
    /// schedules, against the heap oracle with `peek_time` compared before
    /// every pop. Unlike an anchor at the highest time pushed, this lands
    /// pushes in the bucket the calendar's cursor has sorted, and below
    /// the cursor.
    #[test]
    fn calendar_matches_heap_on_engine_shaped_ops(
        prefill in prop::collection::vec(0.0f64..30.0, 0..400),
        ops in engine_ops(800),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &t) in prefill.iter().enumerate() {
            cal.push(SimTime::from_secs(t), i);
            heap.push(SimTime::from_secs(t), i);
        }
        let mut last = SimTime::ZERO;
        for (i, op) in ops.into_iter().enumerate() {
            let t = match op {
                EngineOp::After(delta) => last + delta,
                EngineOp::Before(delta) => SimTime::from_secs((last.as_secs() - delta).max(0.0)),
                EngineOp::Pop => {
                    prop_assert_eq!(cal.peek_time(), heap.peek_time(), "peek before pop");
                    let popped = cal.pop();
                    prop_assert_eq!(popped, heap.pop(), "calendar vs heap");
                    if let Some((t, _)) = popped {
                        last = t;
                    }
                    continue;
                }
            };
            cal.push(t, prefill.len() + i);
            heap.push(t, prefill.len() + i);
        }
        loop {
            prop_assert_eq!(cal.peek_time(), heap.peek_time(), "peek during drain");
            let popped = cal.pop();
            prop_assert_eq!(popped, heap.pop(), "drain");
            if popped.is_none() {
                break;
            }
        }
    }

    /// Random push/pop interleavings against a sorted-vec oracle: both
    /// queue kinds must agree with the oracle on every pop, for any mix of
    /// tie, near, and far-future times (the latter exercising the calendar's
    /// wrap-around year, its jump to the global minimum when a full lap
    /// finds nothing due, and bucket-width recalibration).
    #[test]
    fn queues_match_sorted_vec_oracle(ops in queue_ops(300)) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        // Oracle: (time, seq) pairs kept sorted ascending; pop = remove(0).
        let mut oracle: Vec<(SimTime, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut high = SimTime::ZERO;

        for op in ops {
            match op {
                QueueOp::Push(delta) => {
                    // Anchor pushes at the highest time seen so the trace
                    // stays causal, the way an engine drives the queue.
                    let t = high + delta;
                    high = if t > high { t } else { high };
                    cal.push(t, seq);
                    heap.push(t, seq);
                    let at = oracle.partition_point(|&(ot, os)| (ot, os) < (t, seq));
                    oracle.insert(at, (t, seq));
                    seq += 1;
                }
                QueueOp::Pop => {
                    let expect = if oracle.is_empty() { None } else { Some(oracle.remove(0)) };
                    prop_assert_eq!(cal.pop(), expect, "calendar vs oracle");
                    prop_assert_eq!(heap.pop(), expect, "heap vs oracle");
                }
            }
        }
        // Drain: the full remaining order must match too.
        while let Some(expected) = (!oracle.is_empty()).then(|| oracle.remove(0)) {
            prop_assert_eq!(cal.pop(), Some(expected), "calendar drain");
            prop_assert_eq!(heap.pop(), Some(expected), "heap drain");
        }
        prop_assert_eq!(cal.pop(), None);
        prop_assert_eq!(heap.pop(), None);
    }

    /// FIFO among same-time events survives calendar bucket resizes: a
    /// burst of ties pushed before, across, and after a forced growth
    /// rebuild pops back in exact insertion order.
    #[test]
    fn tie_fifo_survives_bucket_resizes(
        n_ties in 1usize..120,
        tie_at in 0.0f64..1000.0,
        filler in prop::collection::vec(0.0f64..1000.0, 64..256),
    ) {
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let mut q = EventQueue::with_kind(kind);
            // Interleave tied events with spread-out filler so the calendar
            // crosses at least one grow threshold mid-sequence.
            let mut expected_ties = Vec::new();
            for (i, &f) in filler.iter().enumerate() {
                q.push(SimTime::from_secs(f), usize::MAX - i);
                if i < n_ties {
                    q.push(SimTime::from_secs(tie_at), i);
                    expected_ties.push(i);
                }
            }
            let mut got_ties = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some((t, payload)) = q.pop() {
                prop_assert!(t >= last, "time went backwards under {kind:?}");
                last = t;
                if payload < usize::MAX / 2 {
                    got_ties.push(payload);
                }
            }
            prop_assert_eq!(&got_ties, &expected_ties, "tie FIFO broke under {:?}", kind);
        }
    }

    /// The event queue always yields events in non-decreasing time order,
    /// with FIFO order among events that share a timestamp.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u32..100, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(f64::from(t)), (t, i));
        }
        let mut last: Option<(SimTime, (u32, usize))> = None;
        while let Some((time, payload)) = q.pop() {
            if let Some((lt, lp)) = last {
                prop_assert!(time >= lt, "time went backwards");
                if time == lt {
                    prop_assert!(payload.1 > lp.1, "FIFO violated on tie");
                }
            }
            last = Some((time, payload));
        }
    }

    /// Tally::merge is equivalent to recording both sample sets sequentially.
    #[test]
    fn tally_merge_matches_sequential(
        a in prop::collection::vec(-1e6f64..1e6, 0..50),
        b in prop::collection::vec(-1e6f64..1e6, 0..50),
    ) {
        let mut ta = Tally::new();
        let mut tb = Tally::new();
        let mut whole = Tally::new();
        for &x in &a { ta.record(x); whole.record(x); }
        for &x in &b { tb.record(x); whole.record(x); }
        ta.merge(&tb);
        prop_assert_eq!(ta.count(), whole.count());
        if whole.count() > 0 {
            prop_assert!((ta.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
            prop_assert!((ta.variance() - whole.variance()).abs() <= 1e-4 * (1.0 + whole.variance()));
        }
    }

    /// A histogram's CDF is monotone non-decreasing and bounded by [0, 1].
    #[test]
    fn histogram_cdf_is_monotone(samples in prop::collection::vec(-0.5f64..1.5, 1..300)) {
        let mut h = Histogram::new(0.0, 1.0, 50).unwrap();
        for &s in &samples { h.record(s); }
        let mut prev = 0.0;
        for i in 0..=100 {
            let x = f64::from(i) / 100.0;
            let c = h.cdf_at(x);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c >= prev - 1e-12, "CDF decreased at {x}");
            prev = c;
        }
    }

    /// Exact CDF: prob_lt <= prob_le, quantile inverts prob_le.
    #[test]
    fn cdf_strict_weak_consistency(samples in prop::collection::vec(-100f64..100.0, 1..200), x in -100f64..100.0) {
        let mut c = Cdf::new();
        for &s in &samples { c.record(s); }
        prop_assert!(c.prob_lt(x) <= c.prob_le(x));
        let q = c.quantile(0.5).unwrap();
        prop_assert!(c.prob_le(q) >= 0.5);
    }

    /// Zipf probabilities are normalized and non-increasing in rank.
    #[test]
    fn zipf_probabilities_sane(n in 1usize..200, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s).unwrap();
        let total: f64 = (0..n).map(|i| z.prob(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for i in 1..n {
            prop_assert!(z.prob(i) <= z.prob(i - 1) + 1e-12);
        }
    }

    /// The compact `ZipfAlias` is pinned against the reference `Zipf` over
    /// the whole parameter space: identical analytic probabilities (to the
    /// bit) and identical sample streams from equal RNG states, so swapping
    /// one for the other can never perturb a seeded run.
    #[test]
    fn zipf_alias_pins_to_reference_zipf(n in 1usize..400, s in 0.0f64..3.0, seed in 0u64..1000) {
        let a = ZipfAlias::new(n, s).unwrap();
        let z = Zipf::new(n, s).unwrap();
        for i in 0..n {
            prop_assert_eq!(a.prob(i).to_bits(), z.prob(i).to_bits(), "prob({}) diverged", i);
        }
        let mut rng_a = RngStreams::new(seed).stream("zipf-alias-pin");
        let mut rng_z = RngStreams::new(seed).stream("zipf-alias-pin");
        for draw in 0..500 {
            prop_assert_eq!(a.sample(&mut rng_a), z.sample(&mut rng_z), "draw {} diverged", draw);
        }
    }

    /// A capped CDF that never exceeds its cap is indistinguishable from an
    /// exact one: same retained multiset, same quantiles, to the bit.
    #[test]
    fn capped_cdf_exact_below_cap(
        samples in prop::collection::vec(-1e3f64..1e3, 1..100),
        seed in 0u64..1000,
        q in 0.0f64..1.0,
    ) {
        let mut exact = Cdf::new();
        let mut capped = Cdf::with_cap(100, seed);
        for &s in &samples {
            exact.record(s);
            capped.record(s);
        }
        prop_assert_eq!(capped.count(), exact.count());
        prop_assert_eq!(capped.seen(), samples.len() as u64);
        prop_assert_eq!(
            capped.quantile(q).unwrap().to_bits(),
            exact.quantile(q).unwrap().to_bits()
        );
        prop_assert_eq!(capped.mean().to_bits(), exact.mean().to_bits());
    }

    /// Merging CDFs shard-by-shard matches recording the union sequentially
    /// (uncapped): quantiles agree bit-for-bit after the sort.
    #[test]
    fn cdf_merge_matches_sequential(
        a in prop::collection::vec(-1e3f64..1e3, 0..60),
        b in prop::collection::vec(-1e3f64..1e3, 1..60),
        q in 0.0f64..1.0,
    ) {
        let mut ca = Cdf::new();
        let mut cb = Cdf::new();
        let mut whole = Cdf::new();
        for &x in &a { ca.record(x); whole.record(x); }
        for &x in &b { cb.record(x); whole.record(x); }
        ca.merge(&cb);
        prop_assert_eq!(ca.seen(), whole.seen());
        prop_assert_eq!(ca.quantile(q).unwrap().to_bits(), whole.quantile(q).unwrap().to_bits());
    }

    /// Alias-method sampling only produces indices with positive weight.
    #[test]
    fn discrete_support_respected(weights in prop::collection::vec(0.0f64..10.0, 1..50), seed in 0u64..1000) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let d = Discrete::from_weights(&weights).unwrap();
        let mut rng = RngStreams::new(seed).stream("prop");
        for _ in 0..200 {
            let i = d.sample(&mut rng);
            prop_assert!(weights[i] > 0.0, "sampled zero-weight index {i}");
        }
    }

    /// Exponential samples are non-negative; uniform samples respect bounds.
    #[test]
    fn continuous_supports(seed in 0u64..1000, mean in 0.001f64..1e4, lo in -1e3f64..1e3, width in 0.001f64..1e3) {
        let mut rng = RngStreams::new(seed).stream("sup");
        let e = Exponential::with_mean(mean);
        prop_assert!(e.sample(&mut rng) >= 0.0);
        let u = Uniform::new(lo, lo + width).unwrap();
        let x = u.sample(&mut rng);
        prop_assert!(x >= lo && x < lo + width);
    }

    /// Geometric samples are at least 1.
    #[test]
    fn geometric_support(seed in 0u64..1000, mean in 1.0f64..100.0) {
        let g = Geometric::with_mean(mean).unwrap();
        let mut rng = RngStreams::new(seed).stream("geo");
        for _ in 0..50 {
            prop_assert!(g.sample(&mut rng) >= 1);
        }
    }

    /// Empirical resampling stays within the observed range.
    #[test]
    fn empirical_stays_in_range(samples in prop::collection::vec(-50f64..50.0, 1..100), seed in 0u64..100) {
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let d = Empirical::from_samples(samples).unwrap();
        let mut rng = RngStreams::new(seed).stream("emp");
        for _ in 0..50 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= lo && x <= hi);
        }
    }

    /// P² estimates stay within the sample range.
    #[test]
    fn p2_stays_in_range(samples in prop::collection::vec(-1e3f64..1e3, 5..200), p in 0.01f64..0.99) {
        let mut q = P2Quantile::new(p).unwrap();
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &s in &samples { q.record(s); }
        let v = q.value().unwrap();
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "estimate {v} outside [{lo}, {hi}]");
    }

    /// Named RNG streams are reproducible and name-sensitive.
    #[test]
    fn rng_streams_deterministic(seed in 0u64..u64::MAX, idx in 0u64..1000) {
        use rand::Rng;
        let f = RngStreams::new(seed);
        let a: u64 = f.stream_indexed("tag", idx).gen();
        let b: u64 = f.stream_indexed("tag", idx).gen();
        prop_assert_eq!(a, b);
    }
}
