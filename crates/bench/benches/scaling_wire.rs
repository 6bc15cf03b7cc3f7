//! Worker×core scaling wall-chart for the `geodnsd` wire path: answers/s
//! over a real loopback daemon at 1/2/4/8 workers, pinned vs unpinned,
//! in the best transport the kernel grants (uring where available,
//! batched otherwise).
//!
//! What the chart answers: does the per-worker `SO_REUSEPORT` +
//! one-enter-per-round design actually *scale* when cores are added, and
//! how much of that scaling is real parallelism vs scheduler placement
//! luck? The pinned rows place worker `i` on core `i mod online_cpus`
//! (and the closed-loop clients on the remaining cores when there are
//! enough); the unpinned rows are the control — on a many-core box the
//! gap between them is migration noise, and on a one-core box the whole
//! chart is flat by construction (every worker shares the core, so added
//! workers only add contention).
//!
//! Modes:
//!
//! * default — full measurement (3 s per cell, best of 2);
//! * `GEODNS_QUICK=1` / `--quick` — 1 s per cell for CI smoke;
//! * `--check` — gate the lowest pinned multi-worker throughput, as a
//!   ratio of the pinned 1-worker cell, against the collapse floor in the
//!   checked-in `BENCH_scaling_wire.json` (see [`geodns_bench::gate`]; the
//!   gate's `note` says why the floor sits where it does). The floor is
//!   deliberately a *collapse* detector, not a scaling claim: the
//!   committed baseline comes from a single-core box where the ideal
//!   curve is flat and contention can only push it down, so the gate
//!   fails when adding workers destroys throughput (lock convoying, ring
//!   thrashing), never when a small box fails to show a big box's
//!   speedup.
//!
//! The full grid is persisted to `target/paper/scaling_wire.json`; the
//! committed `BENCH_scaling_wire.json` is a hand-promoted snapshot of a
//! reference run plus the gate.

use geodns_bench::gate::{self, Check};
use geodns_bench::{closed_loop_qps, output_dir, quick_mode};
use geodns_core::format_table;
use geodns_wire::{affinity, AuthoritativeServer, Daemon, DaemonConfig, IoMode};

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];
const CLIENTS: usize = 4;
const WINDOW: usize = 32;

/// One cell of the wall-chart: answers/s through a fresh daemon with
/// `workers` threads (pinned to cores 0.. when `pin`) under a fixed
/// closed-loop client load. Client threads are pinned to the cores
/// *after* the workers' range when pinning and the box has room —
/// otherwise they float, which on a saturated small box is the honest
/// configuration anyway.
fn bench_cell(io_mode: IoMode, workers: usize, pin: bool, secs: f64) -> f64 {
    let shards = (0..workers).map(|w| AuthoritativeServer::example_shard(w as u64, 7)).collect();
    let mut cfg = DaemonConfig::new("127.0.0.1:0".parse().expect("valid addr"));
    cfg.io_mode = io_mode;
    cfg.pin = pin.then_some(0);
    let daemon = Daemon::spawn(&cfg, shards).expect("daemon spawns");
    let online = affinity::online_cpus().max(1);
    let qps = closed_loop_qps(daemon.local_addr(), CLIENTS, WINDOW, secs, |c| {
        if pin && online > workers {
            let _ = affinity::pin_to_core(workers + (c % (online - workers)));
        }
    });
    let _ = daemon.shutdown();
    qps
}

fn main() {
    let quick = quick_mode();
    let secs = if quick { 1.0 } else { 3.0 };
    let io_mode = if geodns_wire::uring::supported() { IoMode::Uring } else { IoMode::default() };
    let online = affinity::online_cpus().max(1);

    eprintln!(
        "[scaling_wire] {CLIENTS} clients x window {WINDOW}, io={io_mode}, {online} online \
         cpus, 2 x {secs:.0} s per cell{}",
        if quick { " (quick mode)" } else { "" }
    );

    let mut cells: Vec<(usize, bool, f64)> = Vec::new();
    for &workers in &WORKER_GRID {
        for pin in [false, true] {
            let qps = bench_cell(io_mode, workers, pin, secs)
                .max(bench_cell(io_mode, workers, pin, secs));
            eprintln!(
                "[scaling_wire] {workers} workers, {}: {qps:.0} answers/s",
                if pin { "pinned" } else { "unpinned" }
            );
            cells.push((workers, pin, qps));
        }
    }

    let base =
        cells.iter().find(|&&(w, pin, _)| w == 1 && pin).map_or(f64::NAN, |&(_, _, qps)| qps);
    let rows: Vec<Vec<String>> = WORKER_GRID
        .iter()
        .map(|&w| {
            let at = |want_pin: bool| {
                cells
                    .iter()
                    .find(|&&(cw, pin, _)| cw == w && pin == want_pin)
                    .map_or(f64::NAN, |&(_, _, qps)| qps)
            };
            vec![
                format!("{w}"),
                format!("{:.0}", at(false)),
                format!("{:.0}", at(true)),
                format!("{:.2}x", at(true) / base),
            ]
        })
        .collect();
    println!("\nworker x core scaling, answers/sec ({io_mode} io, {online} online cpus)\n");
    println!(
        "{}",
        format_table(&["workers", "unpinned qps", "pinned qps", "pinned vs 1-worker"], &rows)
    );

    let json = serde_json::json!({
        "quick": quick,
        "io_mode": io_mode.to_string(),
        "online_cpus": online,
        "clients": CLIENTS,
        "window": WINDOW,
        "seconds": secs,
        "cells": cells
            .iter()
            .map(|&(workers, pin, qps)| {
                serde_json::json!({ "workers": workers, "pinned": pin, "qps": qps })
            })
            .collect::<Vec<_>>(),
    });
    let path = output_dir().join("scaling_wire.json");
    std::fs::write(&path, serde_json::to_string_pretty(&json).expect("serialize"))
        .expect("write scaling_wire.json");
    eprintln!("wrote {}", path.display());

    if gate::requested() {
        assert!(base > 0.0, "1-worker cell measured zero throughput");
        let min_ratio = cells
            .iter()
            .filter(|&&(w, pin, _)| pin && w > 1)
            .map(|&(_, _, qps)| qps / base)
            .fold(f64::INFINITY, f64::min);
        let mut check = Check::load("BENCH_scaling_wire.json");
        check.measure("scaling.min_pinned_vs_1_worker", min_ratio);
        check.finish();
    }
}
