//! Internet-scale wall-chart: events/sec and bytes/client as the client
//! population grows 10k → 1M over a 10k-domain Zipf workload, plus a
//! weak-scaling row across shard counts.
//!
//! The paper simulates 500 clients and 20 domains; this chart answers
//! whether the same model — dense struct-of-arrays client state, the
//! alias-sampled Zipf partition, the calendar-queue engine — holds up at
//! Internet scale. Site capacity grows with the population (1 hit/s per
//! client, the paper's 500-for-500 design point) so per-server offered
//! load stays at the ~2/3 design level while the event count scales.
//!
//! Two sections:
//!
//! * **dense** — single-world runs at 10k / 100k / 1M clients; reports
//!   events processed, wall-clock events/sec, and the measured per-client
//!   session-state bytes (the struct-of-arrays columns; ~32¼ B/client).
//! * **weak scaling** — a fixed per-shard population at 1 / 2 / 4 shards
//!   ([`ShardSpec`]); total work grows with the shard count, so on a
//!   many-core box events/sec should grow and on a one-core box stay
//!   flat. The gate is a *collapse* detector, not a speedup claim: the
//!   committed baseline comes from a single-core reference box where the
//!   ideal curve is flat, so the check fails only when sharding destroys
//!   throughput (barrier convoying, exchange overhead), never when a
//!   small box fails to show a big box's speedup.
//!
//! Modes:
//!
//! * default — the full grid, 1M-client cell included;
//! * `GEODNS_QUICK=1` / `--quick` — shrunken populations and spans for CI;
//! * `--check` — gate the largest dense-cell bytes/client and the lowest
//!   multi-shard events/sec (as a ratio of the 1-shard cell) against the
//!   committed `BENCH_scale.json` (see [`geodns_bench::gate`]; each
//!   gate's `note` says why its threshold sits where it does).
//!
//! The grid is persisted to `target/paper/scale.json`; the committed
//! `BENCH_scale.json` is a hand-promoted snapshot of a reference run plus
//! the gates.

use std::time::Instant;

use geodns_bench::gate::{self, Check};
use geodns_bench::{output_dir, quick_mode};
use geodns_core::{format_table, run_simulation_metered, Algorithm, SimConfig};
use geodns_server::HeterogeneityLevel;

const DOMAINS: usize = 10_000;

/// A scale-run configuration: `clients` over [`DOMAINS`] Zipf domains,
/// capacity matched to the population, response CDFs capped so report
/// memory stays bounded however long the run.
fn scale_config(clients: usize, warmup_s: f64, duration_s: f64, shards: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_default(Algorithm::drr2_ttl_s_k(), HeterogeneityLevel::H20);
    cfg.workload.n_clients = clients;
    cfg.workload.n_domains = DOMAINS;
    cfg.total_capacity = clients as f64;
    cfg.warmup_s = warmup_s;
    cfg.duration_s = duration_s;
    cfg.seed = 0x5CA1_E000 + shards as u64;
    cfg.cdf_sample_cap = 1 << 20;
    cfg.shard.shards = shards;
    cfg
}

/// One measured cell: run to completion, time it, pull the metrics.
struct Cell {
    clients: usize,
    shards: usize,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    bytes_per_client: f64,
    hits_completed: u64,
    vm_hwm_mb: f64,
}

fn run_cell(cfg: &SimConfig) -> Cell {
    let t0 = Instant::now();
    let (report, metrics) = run_simulation_metered(cfg).expect("valid scale config");
    let wall_s = t0.elapsed().as_secs_f64();
    Cell {
        clients: cfg.workload.n_clients,
        shards: cfg.shard.shards,
        events: metrics.events,
        wall_s,
        events_per_sec: metrics.events as f64 / wall_s.max(1e-9),
        bytes_per_client: metrics.bytes_per_client(),
        hits_completed: report.hits_completed,
        vm_hwm_mb: vm_hwm_mb(),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable. Monotone across cells — the 1M
/// cell runs last, so its value is the chart's memory headline.
fn vm_hwm_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let quick = quick_mode();

    // (clients, warmup_s, duration_s): spans shrink as populations grow so
    // every cell processes a few million events, enough for a stable rate.
    let dense_grid: &[(usize, f64, f64)] = if quick {
        &[(10_000, 5.0, 15.0), (100_000, 2.0, 6.0)]
    } else {
        &[(10_000, 30.0, 120.0), (100_000, 10.0, 30.0), (1_000_000, 5.0, 15.0)]
    };
    // Per-shard population must cover the domain set (>= DOMAINS clients).
    let (per_shard, weak_warmup, weak_duration) =
        if quick { (10_000, 3.0, 9.0) } else { (20_000, 10.0, 40.0) };
    let shard_grid = [1usize, 2, 4];

    eprintln!(
        "[scale] {DOMAINS} domains, dense grid {:?} clients, weak scaling {per_shard} \
         clients/shard x {shard_grid:?} shards{}",
        dense_grid.iter().map(|&(c, _, _)| c).collect::<Vec<_>>(),
        if quick { " (quick mode)" } else { "" }
    );

    let mut dense: Vec<Cell> = Vec::new();
    for &(clients, warmup, duration) in dense_grid {
        let cell = run_cell(&scale_config(clients, warmup, duration, 1));
        eprintln!(
            "[scale] {clients} clients: {:.0} events/s over {} events, {:.2} bytes/client, \
             peak rss {:.0} MiB",
            cell.events_per_sec, cell.events, cell.bytes_per_client, cell.vm_hwm_mb
        );
        dense.push(cell);
    }

    let mut weak: Vec<Cell> = Vec::new();
    for &shards in &shard_grid {
        let cell = run_cell(&scale_config(per_shard * shards, weak_warmup, weak_duration, shards));
        eprintln!(
            "[scale] {} shards x {per_shard} clients: {:.0} events/s over {} events",
            shards, cell.events_per_sec, cell.events
        );
        weak.push(cell);
    }

    let dense_rows: Vec<Vec<String>> = dense
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.clients),
                format!("{}", c.events),
                format!("{:.2}", c.wall_s),
                format!("{:.0}", c.events_per_sec),
                format!("{:.2}", c.bytes_per_client),
                format!("{:.0}", c.vm_hwm_mb),
            ]
        })
        .collect();
    println!("\nscale: dense client state over {DOMAINS} Zipf domains\n");
    println!(
        "{}",
        format_table(
            &["clients", "events", "wall s", "events/s", "B/client", "peak MiB"],
            &dense_rows
        )
    );

    let weak_base = weak.first().map_or(f64::NAN, |c| c.events_per_sec);
    let weak_rows: Vec<Vec<String>> = weak
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.shards),
                format!("{}", c.clients),
                format!("{}", c.events),
                format!("{:.0}", c.events_per_sec),
                format!("{:.2}x", c.events_per_sec / weak_base),
            ]
        })
        .collect();
    println!("weak scaling: {per_shard} clients per shard\n");
    println!(
        "{}",
        format_table(&["shards", "clients", "events", "events/s", "vs 1 shard"], &weak_rows)
    );

    let cell_json = |c: &Cell| {
        serde_json::json!({
            "clients": c.clients,
            "shards": c.shards,
            "events": c.events,
            "wall_s": c.wall_s,
            "events_per_sec": c.events_per_sec,
            "bytes_per_client": c.bytes_per_client,
            "hits_completed": c.hits_completed,
            "vm_hwm_mb": c.vm_hwm_mb,
        })
    };
    let json = serde_json::json!({
        "quick": quick,
        "domains": DOMAINS,
        "dense": dense.iter().map(cell_json).collect::<Vec<_>>(),
        "weak_scaling": weak.iter().map(cell_json).collect::<Vec<_>>(),
    });
    let path = output_dir().join("scale.json");
    std::fs::write(&path, serde_json::to_string_pretty(&json).expect("serialize"))
        .expect("write scale.json");
    eprintln!("wrote {}", path.display());

    if gate::requested() {
        assert!(weak_base > 0.0, "1-shard cell measured zero throughput");
        let max_bytes = dense.iter().map(|c| c.bytes_per_client).fold(f64::NEG_INFINITY, f64::max);
        let min_weak =
            weak[1..].iter().map(|c| c.events_per_sec / weak_base).fold(f64::INFINITY, f64::min);
        let mut check = Check::load("BENCH_scale.json");
        check.measure("dense.max_bytes_per_client", max_bytes);
        check.measure("weak_scaling.min_vs_1_shard", min_weak);
        check.finish();
    }
}
