//! Micro-benchmarks for the DNS decision path: policy selection and full
//! scheduler resolution. The paper stresses adaptive TTL's "low
//! computational complexity" — these benches quantify it. Prints
//! best-of-N ns per decision; `GEODNS_QUICK=1` / `--quick` shortens the
//! runs for CI smoke.

use std::hint::black_box;

use geodns_bench::{best_ns_per_op, print_ns_per_op, quick_mode};
use geodns_core::{
    Algorithm, DnsScheduler, EstimatorKind, HiddenLoadEstimator, PolicyKind, SchedCtx,
};
use geodns_server::{CapacityPlan, HeterogeneityLevel};
use geodns_simcore::{RngStreams, SimTime};

fn main() {
    let (decisions, repeats) = if quick_mode() { (200_000, 3) } else { (2_000_000, 5) };
    let plan = CapacityPlan::from_level(HeterogeneityLevel::H35, 500.0);
    let weights: Vec<f64> = (0..20).map(|i| 100.0 / (i + 1) as f64).collect();
    let available = vec![true; 7];
    let backlogs = vec![0.0; 7];
    let mut rows = Vec::new();

    for kind in [
        PolicyKind::Rr,
        PolicyKind::Rr2,
        PolicyKind::Prr,
        PolicyKind::Prr2,
        PolicyKind::Dal,
        PolicyKind::Mrl,
        PolicyKind::LeastLoaded,
    ] {
        let mut policy = kind.build(7, 2, 20);
        let mut rng = RngStreams::new(9).stream("bench");
        let ns = best_ns_per_op(decisions, repeats, |i| {
            let ctx = SchedCtx {
                domain: (i % 20) as usize,
                class: (i % 2) as usize,
                weights: &weights,
                relative_caps: plan.relatives(),
                capacities: plan.absolutes(),
                available: &available,
                backlogs: &backlogs,
                now: SimTime::from_secs(i as f64),
            };
            let s = policy.select(&ctx, &mut rng);
            policy.assigned(s, 0.05, 240.0, ctx.now);
            black_box(s);
        });
        rows.push((format!("policy_select/{}", kind.paper_name()), ns));
    }

    for algorithm in [Algorithm::rr(), Algorithm::drr2_ttl_s_k(), Algorithm::prr2_ttl_k()] {
        let est = HiddenLoadEstimator::new(EstimatorKind::Oracle, &weights);
        let rng = RngStreams::new(3).stream("dns");
        let mut dns = DnsScheduler::new(algorithm, &plan, est, 0.05, 240.0, true, rng);
        let ns = best_ns_per_op(decisions, repeats, |i| {
            black_box(dns.resolve((i % 20) as usize, SimTime::from_secs(i as f64), &backlogs));
        });
        rows.push((format!("scheduler_resolve/{}", algorithm.name()), ns));
    }

    let est = HiddenLoadEstimator::new(
        EstimatorKind::Measured { collect_interval_s: 32.0, ema_alpha: 0.25 },
        &[1.0; 100],
    );
    let rng = RngStreams::new(4).stream("dns");
    let mut dns = DnsScheduler::new(Algorithm::drr2_ttl_s_k(), &plan, est, 0.01, 240.0, true, rng);
    let counts: Vec<u64> = (0..100).map(|i| 1000 / (i + 1)).collect();
    let ns = best_ns_per_op(decisions / 100, repeats, |_| {
        black_box(dns.ingest(&counts, 32.0));
    });
    rows.push(("scheduler_ingest_rebuild_k100".to_string(), ns));

    print_ns_per_op("DNS decision path (ns per decision; rebuild per ingest)", &rows);
}
