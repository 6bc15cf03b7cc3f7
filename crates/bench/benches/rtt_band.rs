//! **X18**: proximity-aware scheduling under the geographic latency model.
//!
//! The latency model places the 20 client domains and 7 servers in seeded
//! regions (~15 ms intra-region, ~120 ms inter-region round trips) and the
//! report grows a *client-perceived latency* metric: page response plus
//! the network round trip of the (domain, server) pair the DNS chose.
//! The RTT-band policy keeps per-(domain, server) smoothed RTTs — primed
//! from the geography GeoIP-style, refined by completed pages — and picks
//! the in-band server with the least accumulated hidden load per unit
//! capacity, RTT-discounted, so it should beat the proximity-blind
//! baselines on perceived latency without giving up the load balance the
//! adaptive-TTL machinery buys.
//!
//! Modes:
//!
//! * default — paper-scale runs;
//! * `GEODNS_QUICK=1` / `--quick` — shortened smoke run for CI;
//! * `--check` — gate the default-band RTT-band row against RR: its
//!   client-perceived p95 as a ratio of RR's, and its `P(maxU < 0.98)`
//!   minus RR's, against the thresholds in the checked-in
//!   `BENCH_rtt_band.json` (see [`geodns_bench::gate`]; each gate's
//!   `note` says why its threshold sits where it does).

use geodns_bench::gate::{self, Check};
use geodns_bench::run_rtt_band_sweep;
use geodns_core::{SimReport, DEFAULT_BAND_MS};
use geodns_server::HeterogeneityLevel;

const SEED: u64 = 1998;

fn row<'a>(results: &'a [(String, SimReport)], label: &str) -> &'a SimReport {
    &results
        .iter()
        .find(|(l, _)| l == label)
        .unwrap_or_else(|| panic!("--check: missing row {label}"))
        .1
}

fn perceived_p95(report: &SimReport) -> f64 {
    report.latency.as_ref().expect("latency model enabled").perceived_p95_s
}

fn main() {
    let results = run_rtt_band_sweep("rtt_band", HeterogeneityLevel::H35, SEED);
    if gate::requested() {
        let rr = row(&results, "RR");
        let rtt = row(&results, &format!("RTT-BAND:{DEFAULT_BAND_MS}"));
        let mut check = Check::load("BENCH_rtt_band.json");
        check.measure("perceived_p95.rtt_band_over_rr", perceived_p95(rtt) / perceived_p95(rr));
        check.measure("p98.rtt_band_minus_rr", rtt.p98() - rr.p98());
        check.finish();
    }
}
