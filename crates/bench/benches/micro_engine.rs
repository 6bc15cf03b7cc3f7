//! Event-engine throughput harness: events/sec for both future-event-list
//! implementations, at several pending-set sizes.
//!
//! Raw event throughput bounds how many simulated hours per wall-clock
//! second the whole reproduction can achieve, so this harness is the
//! regression gate for the scheduler. It runs the classic *hold model*
//! (pop the minimum, reinsert at `now + X`) against both [`QueueKind`]s,
//! plus one end-to-end paper simulation per kind, and writes
//! `target/paper/micro_engine.json`.
//!
//! Modes:
//!
//! * default — full measurement (repeats, large step counts, 1k to 1M
//!   pending events);
//! * `GEODNS_QUICK=1` / `--quick` — shortened smoke run for CI, which also
//!   drops the 1M-pending point;
//! * `--check` — after measuring, gate the calendar ÷ heap speedup at
//!   every pending-set size against the floors in the checked-in
//!   `BENCH_engine.json` (see [`geodns_bench::gate`]; each gate's `note`
//!   says why its floor sits where it does). Speedups, not raw
//!   events/sec, so absolute machine speed cancels out.

use std::time::Instant;

use geodns_bench::gate::{self, Check};
use geodns_bench::{best_ns_per_op, output_dir, quick_mode};
use geodns_core::{format_table, run_simulation, Algorithm, QueueKind, SimConfig};
use geodns_server::HeterogeneityLevel;
use geodns_simcore::{EventQueue, SimTime};

/// Mean hold increment in simulated seconds. The exact value is irrelevant
/// (only relative order matters); a non-trivial spread keeps the calendar
/// buckets realistically occupied.
const HOLD_MEAN: f64 = 8.0;

/// One measured hold-model configuration.
struct HoldPoint {
    pending: usize,
    heap_eps: f64,
    calendar_eps: f64,
}

impl HoldPoint {
    fn speedup(&self) -> f64 {
        self.calendar_eps / self.heap_eps
    }
}

/// A tiny deterministic generator for hold increments (xorshift64*): the
/// harness must not depend on ambient randomness.
struct HoldRng(u64);

impl HoldRng {
    fn next_increment(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        let x = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        // Uniform in [0, 2·mean): same mean as exponential, cheaper to draw,
        // and identical for both queue kinds.
        (x >> 11) as f64 / (1u64 << 53) as f64 * (2.0 * HOLD_MEAN)
    }
}

/// Best-of-`repeats` events/sec for `steps` hold operations over a
/// queue prefilled with `pending` events (one hold = one pop + one push
/// = counted as one event delivered).
fn hold_throughput(kind: QueueKind, pending: usize, steps: u64, repeats: usize) -> f64 {
    let mut q = EventQueue::<u32>::with_capacity_and_kind(pending, kind);
    let mut rng = HoldRng(0x9E37_79B9_7F4A_7C15 ^ pending as u64);
    for i in 0..pending {
        q.push(SimTime::from_secs(rng.next_increment()), i as u32);
    }
    let ns = best_ns_per_op(steps, repeats, |_| {
        let (t, payload) = q.pop().expect("hold model never empties");
        q.push(t + rng.next_increment(), payload);
    });
    assert!(q.len() == pending, "hold model must preserve the pending set");
    1e9 / ns
}

/// Wall-clock seconds for one paper simulation on the given queue kind.
fn end_to_end_seconds(kind: QueueKind, quick: bool) -> f64 {
    let mut cfg = SimConfig::paper_default(Algorithm::drr2_ttl_s_k(), HeterogeneityLevel::H35);
    cfg.seed = 7;
    cfg.queue = kind;
    if quick {
        cfg.duration_s = 240.0;
        cfg.warmup_s = 60.0;
    } else {
        cfg.duration_s = 1800.0;
        cfg.warmup_s = 300.0;
    }
    let t0 = Instant::now();
    let report = run_simulation(&cfg).expect("valid config");
    let elapsed = t0.elapsed().as_secs_f64();
    assert!(report.hits_completed > 0);
    elapsed
}

fn main() {
    let quick = quick_mode();
    let (steps, repeats) = if quick { (400_000u64, 2) } else { (4_000_000u64, 3) };
    // The 1M point is where the calendar's memory layout, not its
    // algorithm, sets the pace; it takes seconds, so quick mode skips it.
    let sizes: &[usize] =
        if quick { &[1_000, 10_000, 100_000] } else { &[1_000, 10_000, 100_000, 1_000_000] };

    eprintln!(
        "[micro_engine] hold model: {steps} steps x {repeats} repeats per point{}",
        if quick { " (quick mode)" } else { "" }
    );

    let mut points = Vec::new();
    for &pending in sizes {
        let heap_eps = hold_throughput(QueueKind::Heap, pending, steps, repeats);
        let calendar_eps = hold_throughput(QueueKind::Calendar, pending, steps, repeats);
        points.push(HoldPoint { pending, heap_eps, calendar_eps });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.pending),
                format!("{:.0}", p.heap_eps),
                format!("{:.0}", p.calendar_eps),
                format!("{:.2}x", p.speedup()),
            ]
        })
        .collect();
    println!("\nhold-model throughput (events/sec)\n");
    println!("{}", format_table(&["pending", "heap", "calendar", "speedup"], &rows));

    eprintln!("[micro_engine] end-to-end paper simulation, one run per queue kind …");
    let heap_s = end_to_end_seconds(QueueKind::Heap, quick);
    let calendar_s = end_to_end_seconds(QueueKind::Calendar, quick);
    println!(
        "end-to-end simulation: heap {heap_s:.2} s, calendar {calendar_s:.2} s ({:.2}x)",
        heap_s / calendar_s
    );

    let json = serde_json::json!({
        "quick": quick,
        "hold_steps": steps,
        "hold": points.iter().map(|p| serde_json::json!({
            "pending": p.pending,
            "heap_events_per_sec": p.heap_eps,
            "calendar_events_per_sec": p.calendar_eps,
            "speedup": p.speedup(),
        })).collect::<Vec<_>>(),
        "end_to_end": {
            "heap_seconds": heap_s,
            "calendar_seconds": calendar_s,
            "speedup": heap_s / calendar_s,
        },
    });
    let path = output_dir().join("micro_engine.json");
    std::fs::write(&path, serde_json::to_string_pretty(&json).expect("serialize"))
        .expect("write micro_engine.json");
    eprintln!("wrote {}", path.display());

    if gate::requested() {
        let mut check = Check::load("BENCH_engine.json");
        for p in &points {
            check.measure(format!("hold_speedup.pending_{}", p.pending), p.speedup());
        }
        if quick {
            check.skip("hold_speedup.pending_1000000", "quick mode drops the 1M-pending point");
        }
        check.finish();
    }
}
