//! Trace replay: compare scheduling algorithms on a *frozen* request
//! stream — every session start, page count, hit burst and think time is
//! identical across runs, so any difference in the outcome is pure
//! scheduling.
//!
//! This is how you would drive the model from measured logs: serialize
//! your sessions into the `Trace` line format and replay. `run_trace`
//! runs the trace through the same `World` as `run_simulation`, so every
//! `SimConfig` feature applies to a replay too — failures, the latency
//! model, client caches, recorders, the timeline — except sharding, which
//! it refuses.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release -p geodns-core --example trace_replay
//! ```

use geodns_core::{format_table, run_trace, Algorithm, SimConfig, Trace};
use geodns_server::HeterogeneityLevel;

fn main() {
    // One config defines the site and the workload shape…
    let mut base = SimConfig::paper_default(Algorithm::rr(), HeterogeneityLevel::H50);
    base.duration_s = 2400.0;
    base.warmup_s = 400.0;
    base.seed = 17;

    // …and one trace freezes the actual demand.
    let workload = base.workload.build().expect("paper defaults build");
    let horizon = base.warmup_s + base.duration_s;
    let trace = Trace::generate(&workload, horizon, 0xACE5);
    println!(
        "frozen trace: {} sessions, {} hits over {:.0} s",
        trace.len(),
        trace.total_hits(),
        horizon
    );

    // The serialized form round-trips — this is the import path for real logs.
    let text = trace.to_text();
    let trace = Trace::from_text(&text).expect("own serialization parses");
    println!("trace text form: {} bytes\n", text.len());

    let mut rows = Vec::new();
    for algorithm in [
        Algorithm::rr(),
        Algorithm::dal(),
        Algorithm::prr2_ttl(2),
        Algorithm::prr2_ttl_k(),
        Algorithm::drr2_ttl_s_k(),
    ] {
        let mut cfg = base.clone();
        cfg.algorithm = algorithm;
        let report = run_trace(&cfg, &trace).expect("valid replay");
        rows.push(vec![
            report.algorithm.clone(),
            format!("{:.3}", report.p98()),
            format!("{:.3}", report.prob_max_util_lt(0.9)),
            format!("{:.3}", report.mean_util()),
            format!("{}", report.hits_completed),
        ]);
    }

    println!(
        "{}",
        format_table(
            &["algorithm", "P(maxU<0.98)", "P(maxU<0.9)", "mean util", "hits done"],
            &rows
        )
    );
    println!(
        "reading: the 'hits done' column barely moves — the demand is literally the same\n\
         stream — while the overload columns spread exactly like the paper's figures.\n\
         With a frozen trace, every gap is scheduling, not sampling noise."
    );
}
