//! The output of one simulation run.

use serde::{Deserialize, Serialize};

use crate::obs::ObsSnapshot;
use crate::Timeline;

/// Summary of one simulation run — everything the paper's figures read off,
/// plus operational metrics a practitioner would want.
///
/// The headline series is `max_util_samples`: the maximum server
/// utilization observed at each utilization-check instant after warm-up.
/// Its empirical CDF is the paper's "cumulative frequency of the maximum
/// utilization" (Figures 1–2), and `P(maxU < 0.98)` is the Figures 3–7
/// y-axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// The paper-style algorithm name (`"DRR2-TTL/S_K"`, …).
    pub algorithm: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Heterogeneity level as a percentage (Table 2 measure).
    pub heterogeneity_pct: f64,
    /// Measured span (after warm-up), seconds.
    pub measured_span_s: f64,
    /// Per-interval maximum server utilization, **sorted ascending**.
    pub max_util_samples: Vec<f64>,
    /// Mean utilization per server over the measured span.
    pub per_server_mean_util: Vec<f64>,
    /// Mean page response time (issue → last hit completed), seconds.
    pub page_response_mean_s: f64,
    /// 95th-percentile page response time, seconds.
    pub page_response_p95_s: f64,
    /// Completed client sessions.
    pub sessions: u64,
    /// Address requests that reached the DNS.
    pub dns_queries: u64,
    /// DNS address-request rate over the measured span (requests/s) — the
    /// quantity the TTL normalization holds constant across schemes.
    pub address_request_rate: f64,
    /// Fraction of hits whose session was directly routed by the DNS (the
    /// paper observes this is "often below 4%").
    pub dns_control_fraction: f64,
    /// Hits completed during the measured span.
    pub hits_completed: u64,
    /// Alarm signals raised during the measured span.
    pub alarms: u64,
    /// Name-server cache miss fraction over the measured span.
    pub ns_miss_fraction: f64,
    /// Mean page response for clients of *hot* domains (γ rule), seconds.
    #[serde(default)]
    pub page_response_hot_mean_s: f64,
    /// Mean page response for clients of *normal* domains, seconds.
    #[serde(default)]
    pub page_response_normal_mean_s: f64,
    /// Sessions resolved from the client's own cache (0 unless a client
    /// cache model is enabled).
    #[serde(default)]
    pub client_cache_hits: u64,
    /// Hits that failed during the measured span because their server was
    /// down — issued against a dead server, or dropped from its queue by a
    /// crash. Always 0 without fault injection.
    #[serde(default)]
    pub hits_failed: u64,
    /// Failure-driven rebinds during the measured span: resolutions that
    /// moved a client off a server the world knows is dead.
    #[serde(default)]
    pub rebinds: u64,
    /// Fraction of the measured span each server was up (all 1.0 without
    /// fault injection).
    #[serde(default)]
    pub per_server_availability: Vec<f64>,
    /// Mean seconds from a repair completing (within the measured span) to
    /// the first hit arriving at the recovered server — how quickly the
    /// scheme rebalances traffic back. 0 when no repair was observed.
    #[serde(default)]
    pub time_to_rebalance_mean_s: f64,
    /// Whole-run hit-conservation ledger: every hit ever issued…
    #[serde(default)]
    pub hits_issued_total: u64,
    /// …was served…
    #[serde(default)]
    pub hits_served_total: u64,
    /// …or failed…
    #[serde(default)]
    pub hits_failed_total: u64,
    /// …or was still queued when the horizon hit.
    #[serde(default)]
    pub hits_in_flight: u64,
    /// The utilization time series, present when the run was configured
    /// with `record_timeline`.
    #[serde(default)]
    pub timeline: Option<Timeline>,
    /// Observability counters snapshot, present when
    /// [`SimConfig::obs`](crate::SimConfig) enables the counters
    /// registry. Skipped from serialization when absent so
    /// default-configured reports stay byte-identical to those produced
    /// before the observability layer existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub obs: Option<ObsSnapshot>,
    /// Client-perceived latency summary, present when the run was
    /// configured with an enabled geographic latency model. Skipped from
    /// serialization when absent so latency-free reports stay
    /// byte-identical to those produced before the proximity extension.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub latency: Option<LatencySummary>,
}

/// Exact-CDF summary of the client-perceived latency of every measured
/// page: the page response time (issue → last hit completed) **plus** the
/// base network round-trip between the client's domain and the server that
/// served it — the quantity geo-aware scheduling actually optimizes and
/// proximity-blind policies cannot see.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Pages in the sample (measured span only).
    pub pages: u64,
    /// Mean client-perceived latency, seconds.
    pub perceived_mean_s: f64,
    /// Median (exact empirical CDF, like the utilization quantiles).
    pub perceived_p50_s: f64,
    /// 95th percentile, seconds.
    pub perceived_p95_s: f64,
    /// 99th percentile, seconds.
    pub perceived_p99_s: f64,
    /// Mean base network RTT of the chosen (domain, server) pairs, seconds
    /// — how *near* the scheduler's answers were, independent of queueing.
    pub rtt_mean_s: f64,
}

impl SimReport {
    /// `P(MaxUtilization < x)` — the paper's cumulative frequency.
    #[must_use]
    pub fn prob_max_util_lt(&self, x: f64) -> f64 {
        if self.max_util_samples.is_empty() {
            return 0.0;
        }
        let below = self.max_util_samples.partition_point(|&s| s < x);
        below as f64 / self.max_util_samples.len() as f64
    }

    /// The CDF evaluated at each point of `xs` — one curve of Figure 1/2.
    #[must_use]
    pub fn cdf_curve(&self, xs: &[f64]) -> Vec<(f64, f64)> {
        xs.iter().map(|&x| (x, self.prob_max_util_lt(x))).collect()
    }

    /// The mean of the per-interval maximum utilization.
    #[must_use]
    pub fn mean_max_util(&self) -> f64 {
        if self.max_util_samples.is_empty() {
            return 0.0;
        }
        self.max_util_samples.iter().sum::<f64>() / self.max_util_samples.len() as f64
    }

    /// Mean utilization across all servers (should sit near the paper's
    /// 2/3 design point).
    #[must_use]
    pub fn mean_util(&self) -> f64 {
        if self.per_server_mean_util.is_empty() {
            return 0.0;
        }
        self.per_server_mean_util.iter().sum::<f64>() / self.per_server_mean_util.len() as f64
    }

    /// The paper's Figures 3–7 y-axis: `P(MaxUtilization < 0.98)`.
    #[must_use]
    pub fn p98(&self) -> f64 {
        self.prob_max_util_lt(0.98)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(samples: Vec<f64>) -> SimReport {
        let mut sorted = samples;
        sorted.sort_unstable_by(|a, b| a.total_cmp(b));
        SimReport {
            algorithm: "TEST".into(),
            seed: 0,
            heterogeneity_pct: 20.0,
            measured_span_s: 100.0,
            max_util_samples: sorted,
            per_server_mean_util: vec![0.6, 0.7],
            page_response_mean_s: 0.1,
            page_response_p95_s: 0.3,
            sessions: 10,
            dns_queries: 5,
            address_request_rate: 0.05,
            dns_control_fraction: 0.04,
            hits_completed: 1000,
            alarms: 0,
            ns_miss_fraction: 0.05,
            page_response_hot_mean_s: 0.12,
            page_response_normal_mean_s: 0.08,
            client_cache_hits: 0,
            hits_failed: 0,
            rebinds: 0,
            per_server_availability: vec![1.0, 1.0],
            time_to_rebalance_mean_s: 0.0,
            hits_issued_total: 1000,
            hits_served_total: 1000,
            hits_failed_total: 0,
            hits_in_flight: 0,
            timeline: None,
            obs: None,
            latency: None,
        }
    }

    #[test]
    fn cdf_is_fractional_rank() {
        let r = report(vec![0.5, 0.7, 0.9, 0.99]);
        assert_eq!(r.prob_max_util_lt(0.6), 0.25);
        assert_eq!(r.prob_max_util_lt(0.95), 0.75);
        assert_eq!(r.p98(), 0.75);
        assert_eq!(r.prob_max_util_lt(1.1), 1.0);
    }

    #[test]
    fn empty_samples_are_zero() {
        let r = report(vec![]);
        assert_eq!(r.prob_max_util_lt(0.5), 0.0);
        assert_eq!(r.mean_max_util(), 0.0);
    }

    #[test]
    fn means() {
        let r = report(vec![0.4, 0.6]);
        assert!((r.mean_max_util() - 0.5).abs() < 1e-12);
        assert!((r.mean_util() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotone() {
        let r = report(vec![0.3, 0.5, 0.8, 0.9, 0.95]);
        let xs: Vec<f64> = (0..=20).map(|i| f64::from(i) / 20.0).collect();
        let curve = r.cdf_curve(&xs);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }
}
