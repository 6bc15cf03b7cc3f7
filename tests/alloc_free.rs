//! Allocation accounting for the simulation hot path.
//!
//! The steady-state event loop — and in particular the DNS decision path
//! (`World::resolve_client` → `DnsScheduler::resolve` → policy `select`) —
//! must not allocate per event. A fresh `Vec` per decision is invisible in
//! a unit test and ruinous at scale, so these tests pin the property with a
//! counting global allocator: one measures the scheduler decision path in
//! isolation (exactly zero allocations once warm), one does the same for
//! the future-event list on its own, and one runs whole simulations of
//! different lengths and checks that allocation count grows sublinearly in
//! the number of events processed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use geodns_core::{
    Algorithm, DnsScheduler, EstimatorKind, HiddenLoadEstimator, MuxProbe, NoopProbe, ObsConfig,
    ObsCounters, PolicyKind, Probe, SimConfig, TtlKind,
};
use geodns_server::HeterogeneityLevel;
use geodns_simcore::stats::Cdf;
use geodns_simcore::{Engine, EventQueue, QueueKind, RngStreams, SimTime};

/// Counts every `alloc`/`realloc` call (deallocations are free to ignore:
/// the property under test is "no new heap traffic per event").
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-global, so tests that read it must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// The allocation delta across `f`, minimized over a few attempts: the
/// counter is process-global, so the libtest harness occasionally donates a
/// stray allocation from another thread mid-window. A real per-decision
/// allocation shows up ≥10k strong in *every* attempt and cannot hide
/// behind a retry; one-off harness noise can.
fn allocations_during(mut f: impl FnMut()) -> u64 {
    let mut fewest = u64::MAX;
    for _ in 0..3 {
        let before = alloc_calls();
        f();
        fewest = fewest.min(alloc_calls() - before);
        if fewest == 0 {
            break;
        }
    }
    fewest
}

/// Builds a warm scheduler for the given algorithm over the paper's 7-server
/// H20 site.
fn scheduler(algorithm: Algorithm) -> DnsScheduler {
    let cfg = SimConfig::paper_default(algorithm, HeterogeneityLevel::H20);
    let workload = cfg.workload.build().expect("paper workload");
    let plan = cfg.servers.plan(cfg.total_capacity).expect("paper plan");
    let estimator = HiddenLoadEstimator::new(EstimatorKind::Oracle, workload.nominal_rates());
    DnsScheduler::new(
        cfg.algorithm,
        &plan,
        estimator,
        cfg.gamma(),
        cfg.ttl_const_s,
        cfg.normalize_ttl,
        RngStreams::new(7).stream("dns-policy"),
    )
}

#[test]
fn dns_decision_path_is_allocation_free() {
    let _guard = SERIAL.lock().unwrap();

    // Every stateless-per-decision policy the paper (and the baselines)
    // ship. MRL is excluded: it records a binding per assignment by design,
    // which is inherent policy state, not hot-path waste.
    let algorithms = [
        Algorithm::rr(),
        Algorithm::rr2(),
        Algorithm::prr_ttl1(),
        Algorithm::prr_ttl_k(),
        Algorithm::drr2_ttl_s_k(),
        Algorithm::dal(),
        Algorithm::new(PolicyKind::Random, TtlKind::Constant),
        Algorithm::new(PolicyKind::WeightedRandom, TtlKind::Constant),
        Algorithm::new(PolicyKind::LeastLoaded, TtlKind::Constant),
    ];

    for algorithm in algorithms {
        let name = algorithm.name();
        let mut dns = scheduler(algorithm);
        let backlogs = [0.3, 0.1, 0.7, 0.2, 0.0, 0.5, 0.4];

        // Warm-up: let any lazily grown policy state reach steady size.
        let mut t = 0.0_f64;
        for i in 0..512 {
            dns.resolve(i % 20, SimTime::from_secs(t), &backlogs);
            t += 0.05;
        }

        let grew = allocations_during(|| {
            for i in 0..10_000 {
                dns.resolve(i % 20, SimTime::from_secs(t), &backlogs);
                t += 0.05;
            }
        });
        assert_eq!(grew, 0, "{name}: {grew} allocations across 10k warm DNS decisions");
    }
}

#[test]
fn probed_dns_decision_path_is_allocation_free() {
    let _guard = SERIAL.lock().unwrap();

    // The observability hooks must not change the hot-path story: with the
    // no-op probe, with the disabled `MuxProbe` the world actually carries,
    // and even with the counters registry attached, 10k warm probed DNS
    // decisions perform zero allocations.
    let mut dns = scheduler(Algorithm::drr2_ttl_s_k());
    let backlogs = [0.3, 0.1, 0.7, 0.2, 0.0, 0.5, 0.4];
    let mut noop = NoopProbe;
    let mut disabled = MuxProbe::from_config(&ObsConfig::default()).expect("default obs config");
    let mut counters = ObsCounters::new();
    assert!(!disabled.is_enabled());

    let mut t = 0.0_f64;
    for i in 0..512 {
        dns.resolve_probed(i % 20, SimTime::from_secs(t), &backlogs, &mut noop);
        t += 0.05;
    }

    let probes: [(&str, &mut dyn Probe); 3] = [
        ("NoopProbe", &mut noop),
        ("disabled MuxProbe", &mut disabled),
        ("ObsCounters", &mut counters),
    ];
    for (name, probe) in probes {
        let grew = allocations_during(|| {
            for i in 0..10_000 {
                dns.resolve_probed(i % 20, SimTime::from_secs(t), &backlogs, probe);
                t += 0.05;
            }
        });
        assert_eq!(grew, 0, "{name}: {grew} allocations across 10k warm probed DNS decisions");
    }
    assert!(counters.snapshot(0, 0).dns_decisions >= 10_000, "the counters really did record");
}

#[test]
fn warm_calendar_queue_holds_without_allocating() {
    let _guard = SERIAL.lock().unwrap();

    // The hold model (pop the minimum, push it back `gap` later) at a
    // 100k-event pending set: a popped node goes to the free list and the
    // next push reuses it, and the bucket count only changes with the
    // pending-set size, so once warm the queue never allocates.
    const PENDING: u32 = 100_000;
    let mut q = EventQueue::with_kind(QueueKind::Calendar);
    let mut gap = uniform(0x9E37_79B9_7F4A_7C15, 16.0);
    for i in 0..PENDING {
        q.push(SimTime::from_secs(gap()), i);
    }
    let mut hold = |steps: u32| {
        for _ in 0..steps {
            let (t, payload) = q.pop().expect("the hold model never empties");
            q.push(t + gap(), payload);
        }
    };
    hold(PENDING);

    let grew = allocations_during(|| hold(100_000));
    assert_eq!(grew, 0, "{grew} allocations across 100k warm calendar hold steps");
}

/// A xorshift64* stream of uniform draws in `[0, scale)`.
fn uniform(seed: u64, scale: f64) -> impl FnMut() -> f64 {
    let mut x = seed;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64 * scale
    }
}

#[test]
fn warm_engine_with_armed_timer_slots_steps_without_allocating() {
    let _guard = SERIAL.lock().unwrap();

    // The simulator's shape: a large pending set on the calendar plus one
    // completion per server in a timer slot, re-armed as soon as it fires.
    // The slots are a fixed array, so once the calendar is warm no step
    // allocates, whichever side delivers.
    const PENDING: u32 = 100_000;
    const SLOTS: u32 = 7;
    let mut eng = Engine::with_kind(QueueKind::Calendar).with_timer_slots(SLOTS as usize);
    let mut gap = uniform(0x9E37_79B9_7F4A_7C15, 16.0);
    let mut service = uniform(0xD1B5_4A32_D192_ED03, 0.01);
    for i in 0..PENDING {
        eng.schedule_in(gap(), i);
    }
    for s in 0..SLOTS {
        eng.arm_in(s as usize, service(), PENDING + s);
    }
    let mut hold = |steps: u32| {
        for _ in 0..steps {
            let (_, payload) = eng.step().expect("the hold model never empties");
            match payload.checked_sub(PENDING) {
                Some(slot) => eng.arm_in(slot as usize, service(), payload),
                None => eng.schedule_in(gap(), payload),
            }
        }
    };
    hold(PENDING);

    let grew = allocations_during(|| hold(100_000));
    assert_eq!(grew, 0, "{grew} allocations across 100k warm engine steps with armed slots");
}

#[test]
fn cdf_quantile_sorts_in_place() {
    let _guard = SERIAL.lock().unwrap();

    // The first quantile sorts the retained samples. At 100k samples a
    // sort that needs a scratch copy would double the CDF's footprint at
    // the moment a run's reports are finalized; the sort is in place.
    let mut draw = uniform(0x2545_F491_4F6C_DD1D, 1.0);
    let mut unsorted = Cdf::new();
    for _ in 0..100_000 {
        unsorted.record(draw());
    }
    // One unsorted copy per attempt, made outside the measured window.
    let mut copies = vec![unsorted.clone(), unsorted.clone(), unsorted];
    let grew = allocations_during(|| {
        let mut cdf = copies.pop().expect("one copy per attempt");
        assert!(cdf.quantile(0.95).is_some());
    });
    assert_eq!(grew, 0, "{grew} allocations in the first quantile of a 100k-sample CDF");
}

#[test]
fn steady_state_event_loop_allocates_sublinearly() {
    let _guard = SERIAL.lock().unwrap();

    // Same model, two horizons: the long run processes ~3x the events of
    // the short one. If the event loop allocated per event (or per DNS
    // decision), the allocation delta would track the event delta; with
    // scratch buffers it is only amortized `Vec` doubling in the stats
    // sinks, orders of magnitude below it.
    let mut cfg = SimConfig::quick(Algorithm::drr2_ttl_s_k(), HeterogeneityLevel::H20);
    cfg.warmup_s = 30.0;
    cfg.duration_s = 120.0;
    let short_cfg = cfg.clone();
    cfg.duration_s = 360.0;
    let long_cfg = cfg;

    let before = alloc_calls();
    let short = geodns_core::run_simulation(&short_cfg).expect("short run");
    let mid = alloc_calls();
    let long = geodns_core::run_simulation(&long_cfg).expect("long run");
    let after = alloc_calls();

    let short_allocs = mid - before;
    let long_allocs = after - mid;
    let extra_allocs = long_allocs.saturating_sub(short_allocs);
    let extra_events = long.hits_completed.saturating_sub(short.hits_completed);
    assert!(extra_events > 10_000, "long run should process many more hits");
    assert!(
        (extra_allocs as f64) < (extra_events as f64) * 0.01,
        "event loop allocates per event: {extra_allocs} extra allocations \
         for {extra_events} extra hits"
    );
}
