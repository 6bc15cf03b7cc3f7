//! Trace replay: run a frozen request stream through the full system.
//!
//! [`run_trace`] feeds a [`Trace`] (recorded or synthetic) through the
//! same [`World`] as every other run, with *every* random workload
//! quantity predetermined. Two algorithms replayed on the same trace
//! therefore see the **identical** request stream — stronger than common
//! random numbers, and the natural way to drive the model from measured
//! logs.
//!
//! Semantics: sessions start at their trace times (open loop across
//! sessions); within a session, page `i+1` is issued one recorded think
//! time after page `i`'s last hit completes (closed loop within the
//! session, so queueing still feeds back into pacing). A failed page
//! follows the configured failover model: pinned clients wait out the
//! page's recorded think, retrying clients re-issue the same page.

use geodns_workload::Trace;

use crate::{SimConfig, SimReport, World};

/// Replays `trace` under `config`, returning the usual report. The
/// measured span is `[config.warmup_s, config.warmup_s +
/// config.duration_s)`; the trace should cover it.
///
/// Client slot `i` replays `trace.sessions[i]`, mapped to a domain through
/// `config.workload`'s client table; the workload's session model is not
/// drawn from. Everything else in `config` applies as in
/// [`run_simulation`](crate::run_simulation): failures, the latency model,
/// client caches, NS non-cooperation, recorders, the timeline and the CDF
/// cap. A client cache belongs to its slot, so it spans one trace session.
///
/// # Errors
///
/// Returns the first configuration or trace problem found, and refuses a
/// sharded config (`config.shard.shards > 1`): a trace drives one world.
pub fn run_trace(config: &SimConfig, trace: &Trace) -> Result<SimReport, String> {
    if config.shard.shards > 1 {
        return Err(format!(
            "trace replay runs one unsharded world, but shard.shards = {}",
            config.shard.shards
        ));
    }
    trace.validate()?;
    Ok(World::replaying(config, trace.clone())?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, FailoverModel};
    use geodns_server::{FailureSpec, HeterogeneityLevel};

    fn config(algorithm: Algorithm) -> SimConfig {
        let mut cfg = SimConfig::paper_default(algorithm, HeterogeneityLevel::H35);
        cfg.duration_s = 900.0;
        cfg.warmup_s = 150.0;
        cfg.seed = 61;
        cfg
    }

    fn trace_for(cfg: &SimConfig) -> Trace {
        let workload = cfg.workload.build().unwrap();
        Trace::generate(&workload, cfg.warmup_s + cfg.duration_s, 424_242)
    }

    #[test]
    fn replay_runs_and_is_deterministic() {
        let cfg = config(Algorithm::drr2_ttl_s_k());
        let trace = trace_for(&cfg);
        let a = run_trace(&cfg, &trace).unwrap();
        let b = run_trace(&cfg, &trace).unwrap();
        assert_eq!(a, b);
        assert!(a.hits_completed > 10_000);
        assert!(!a.max_util_samples.is_empty());
        assert!(a.mean_util() > 0.3);
    }

    #[test]
    fn same_trace_different_algorithms_same_demand() {
        let cfg_rr = config(Algorithm::rr());
        let trace = trace_for(&cfg_rr);
        let mut cfg_ad = cfg_rr.clone();
        cfg_ad.algorithm = Algorithm::drr2_ttl_s_k();

        let rr = run_trace(&cfg_rr, &trace).unwrap();
        let adaptive = run_trace(&cfg_ad, &trace).unwrap();
        // Identical offered stream: hit totals within the slack created by
        // queueing-dependent page pacing.
        let ratio = rr.hits_completed as f64 / adaptive.hits_completed as f64;
        assert!((0.93..1.07).contains(&ratio), "hit ratio {ratio}");
        // And the paper's ordering holds on a frozen stream too.
        assert!(adaptive.p98() > rr.p98(), "adaptive {} vs RR {}", adaptive.p98(), rr.p98());
    }

    #[test]
    fn trace_outside_workload_rejected() {
        let cfg = config(Algorithm::rr());
        let mut trace = trace_for(&cfg);
        trace.sessions[0].client = 10_000;
        assert!(run_trace(&cfg, &trace).is_err());
    }

    #[test]
    fn invalid_trace_rejected() {
        let cfg = config(Algorithm::rr());
        let mut trace = trace_for(&cfg);
        trace.sessions[0].hits.clear();
        trace.sessions[0].thinks.clear();
        assert!(run_trace(&cfg, &trace).is_err());
    }

    #[test]
    fn replay_honours_failures_and_recorders() {
        let heavy = FailureSpec { mtbf_s: 400.0, mttr_s: 60.0 };
        let retry = FailoverModel::RetryAfterBackoff { backoff_s: 5.0 };
        for failover in [FailoverModel::PinUntilTtl, retry] {
            let mut cfg = config(Algorithm::drr2_ttl_s_k());
            cfg.failures.enabled = true;
            cfg.failures.spec = heavy;
            cfg.failures.failover = failover;
            cfg.obs.counters = true;
            cfg.latency.enabled = true;
            cfg.record_timeline = true;
            let r = run_trace(&cfg, &trace_for(&cfg)).unwrap();
            assert_eq!(
                r.hits_issued_total,
                r.hits_served_total + r.hits_failed_total + r.hits_in_flight,
                "hit ledger must balance under {failover:?}"
            );
            assert!(r.hits_failed > 0, "crashes must fail hits under {failover:?}");
            assert!(r.obs.is_some() && r.latency.is_some() && r.timeline.is_some());
            assert!(r.page_response_p95_s > 0.0);
        }
    }

    #[test]
    fn sharded_replay_rejected() {
        let mut cfg = config(Algorithm::rr());
        let trace = trace_for(&cfg);
        cfg.shard.shards = 2;
        assert!(run_trace(&cfg, &trace).is_err());
    }
}
