//! DNS wire-path throughput harness: the per-query cost a real deployment
//! of the adaptive-TTL DNS pays, measured at three depths and gated
//! against the checked-in `BENCH_wire.json`.
//!
//! 1. **codec** — encode (fresh `to_bytes` vs reused-buffer
//!    `write_bytes`) and parse, queries/sec;
//! 2. **serve** — `AuthoritativeServer::handle_into` on the byte-matched
//!    fast path vs the parse-based slow path (the same `IN A` query with
//!    one trailing pad byte, which the fast path declines but the slow
//!    path answers identically);
//! 3. **daemon** — end-to-end over a real loopback socket: `Daemon`
//!    workers vs closed-loop client threads, answers/sec, measured three
//!    ways: `daemon_single` (shared socket, one datagram per syscall,
//!    window 1 — the PR 4 transport), `daemon_batched` (per-worker
//!    `SO_REUSEPORT` sockets, `recvmmsg`/`sendmmsg`, windowed clients —
//!    the default), and `daemon_uring` (same sockets, one
//!    `io_uring_enter` per drain-serve-flush round; skipped where the
//!    kernel has no io_uring).
//!
//! Modes:
//!
//! * default — full measurement;
//! * `GEODNS_QUICK=1` / `--quick` — shortened smoke run for CI;
//! * `--check` — after measuring, gate three same-run ratios against
//!   the floors in the checked-in `BENCH_wire.json` (see
//!   [`geodns_bench::gate`]; each gate's `note` says why its floor sits
//!   where it does): fast path over slow path, batched over single
//!   transport, and uring over batched transport. Ratios measured on the
//!   same machine in the same run, so absolute machine speed cancels out.
//!   The transport gates are skipped off Linux, where `IoMode::Batched`
//!   degrades to the portable fallback, and the uring gate where the
//!   kernel grants no io_uring. The absolute qps floor is enforced
//!   separately by the CI daemon smoke job (`loadgen --min-qps`).

use geodns_bench::gate::{self, Check};
use geodns_bench::{best_ns_per_op, closed_loop_qps, output_dir, quick_mode};
use geodns_core::format_table;
use geodns_wire::{AuthoritativeServer, Daemon, DaemonConfig, IoMode, Message, Question};

struct CodecNumbers {
    encode_fresh_qps: f64,
    encode_reuse_qps: f64,
    parse_qps: f64,
}

fn bench_codec(iters: u64, repeats: usize) -> CodecNumbers {
    let query = Message::query(7, Question::a("www.example.org"));
    let bytes = query.to_bytes();
    let encode_fresh_qps = 1e9
        / best_ns_per_op(iters, repeats, |_| {
            std::hint::black_box(query.to_bytes());
        });
    let mut buf = Vec::with_capacity(128);
    let encode_reuse_qps = 1e9
        / best_ns_per_op(iters, repeats, |_| {
            query.write_bytes(&mut buf);
            std::hint::black_box(buf.len());
        });
    let parse_qps = 1e9
        / best_ns_per_op(iters, repeats, |_| {
            std::hint::black_box(Message::parse(&bytes).expect("valid query"));
        });
    CodecNumbers { encode_fresh_qps, encode_reuse_qps, parse_qps }
}

struct ServeNumbers {
    fast_qps: f64,
    slow_qps: f64,
}

impl ServeNumbers {
    fn speedup(&self) -> f64 {
        self.fast_qps / self.slow_qps
    }
}

fn bench_serve(iters: u64, repeats: usize) -> ServeNumbers {
    let mut server = AuthoritativeServer::example();
    let query = Message::query(7, Question::a("www.example.org")).to_bytes();
    // One trailing pad byte: same parsed meaning, but the exact-length
    // fast path declines it, forcing the full parse → build → encode path.
    let mut padded = query.clone();
    padded.push(0);
    let mut out = Vec::with_capacity(128);
    let mut now = 0.0_f64;
    let fast_qps = 1e9
        / best_ns_per_op(iters, repeats, |i| {
            now += 0.001;
            let src = [10, (i % 4) as u8, 0, 1];
            server.handle_into(&query, src, now, &mut out).expect("fast path answers");
        });
    let slow_qps = 1e9
        / best_ns_per_op(iters, repeats, |i| {
            now += 0.001;
            let src = [10, (i % 4) as u8, 0, 1];
            server.handle_into(&padded, src, now, &mut out).expect("slow path answers");
        });
    ServeNumbers { fast_qps, slow_qps }
}

/// End-to-end answers/sec through a real loopback daemon in the given
/// io mode: `workers` daemon threads under [`closed_loop_qps`] load.
fn bench_daemon(io_mode: IoMode, workers: usize, clients: usize, window: usize, secs: f64) -> f64 {
    let shards = (0..workers).map(|w| AuthoritativeServer::example_shard(w as u64, 7)).collect();
    let mut cfg = DaemonConfig::new("127.0.0.1:0".parse().expect("valid addr"));
    cfg.io_mode = io_mode;
    let daemon = Daemon::spawn(&cfg, shards).expect("daemon spawns");
    let qps = closed_loop_qps(daemon.local_addr(), clients, window, secs, |_| {});
    let report = daemon.shutdown();
    assert_eq!(report.totals().dropped, 0, "daemon dropped well-formed queries");
    assert_eq!(report.totals().tx_errors, 0, "daemon hit transmit errors");
    qps
}

fn main() {
    let quick = quick_mode();
    let (iters, repeats) = if quick { (200_000u64, 2) } else { (2_000_000u64, 3) };
    let daemon_secs = if quick { 1.0 } else { 3.0 };

    eprintln!(
        "[micro_wire] {iters} iterations x {repeats} repeats per point{}",
        if quick { " (quick mode)" } else { "" }
    );

    let codec = bench_codec(iters, repeats);
    let serve = bench_serve(iters, repeats);
    // Best of two attempts per mode: one daemon run is at the mercy of
    // scheduler placement, and the gates consume the ratios.
    let daemon = |io_mode: IoMode, window: usize| {
        eprintln!(
            "[micro_wire] end-to-end loopback daemon, {io_mode} io (2 x {daemon_secs:.0} s) …"
        );
        let run = || bench_daemon(io_mode, 2, 4, window, daemon_secs);
        run().max(run())
    };
    let daemon_single = daemon(IoMode::Single, 1);
    let daemon_batched = daemon(IoMode::Batched, 32);
    let batched_vs_single = daemon_batched / daemon_single;
    let daemon_uring = geodns_wire::uring::supported().then(|| daemon(IoMode::Uring, 32));
    let uring_vs_batched = daemon_uring.map(|qps| qps / daemon_batched);

    let rows = vec![
        vec!["codec: encode (fresh Vec)".into(), format!("{:.0}", codec.encode_fresh_qps)],
        vec!["codec: encode (reused buffer)".into(), format!("{:.0}", codec.encode_reuse_qps)],
        vec!["codec: parse".into(), format!("{:.0}", codec.parse_qps)],
        vec!["serve: fast path".into(), format!("{:.0}", serve.fast_qps)],
        vec!["serve: slow path (padded)".into(), format!("{:.0}", serve.slow_qps)],
        vec!["daemon: single io (window 1)".into(), format!("{daemon_single:.0}")],
        vec!["daemon: batched io (window 32)".into(), format!("{daemon_batched:.0}")],
        vec![
            "daemon: uring io (window 32)".into(),
            daemon_uring.map_or_else(|| "unavailable".into(), |qps| format!("{qps:.0}")),
        ],
    ];
    println!("\nwire-path throughput (queries/sec)\n");
    println!("{}", format_table(&["stage", "qps"], &rows));
    println!(
        "fast path is {:.2}x the slow path; reused-buffer encode is {:.2}x a fresh Vec; \
         batched transport is {:.2}x the single-datagram transport{}",
        serve.speedup(),
        codec.encode_reuse_qps / codec.encode_fresh_qps,
        batched_vs_single,
        uring_vs_batched
            .map_or_else(String::new, |r| format!("; uring transport is {r:.2}x the batched"))
    );

    let json = serde_json::json!({
        "quick": quick,
        "iters": iters,
        "codec": {
            "encode_fresh_qps": codec.encode_fresh_qps,
            "encode_reuse_qps": codec.encode_reuse_qps,
            "parse_qps": codec.parse_qps,
            "reuse_speedup": codec.encode_reuse_qps / codec.encode_fresh_qps,
        },
        "serve": {
            "fast_qps": serve.fast_qps,
            "slow_qps": serve.slow_qps,
            "fast_path_speedup": serve.speedup(),
        },
        "daemon_single": {
            "io_mode": "single",
            "workers": 2,
            "clients": 4,
            "window": 1,
            "seconds": daemon_secs,
            "qps": daemon_single,
        },
        "daemon_batched": {
            "io_mode": "batched",
            "workers": 2,
            "clients": 4,
            "window": 32,
            "seconds": daemon_secs,
            "qps": daemon_batched,
            "batched_vs_single": batched_vs_single,
        },
        "daemon_uring": {
            "io_mode": "uring",
            "supported": daemon_uring.is_some(),
            "workers": 2,
            "clients": 4,
            "window": 32,
            "seconds": daemon_secs,
            "qps": daemon_uring,
            "uring_vs_batched": uring_vs_batched,
        },
    });
    let path = output_dir().join("micro_wire.json");
    std::fs::write(&path, serde_json::to_string_pretty(&json).expect("serialize"))
        .expect("write micro_wire.json");
    eprintln!("wrote {}", path.display());

    if gate::requested() {
        let mut check = Check::load("BENCH_wire.json");
        check.measure("serve.fast_path_speedup", serve.speedup());
        if cfg!(target_os = "linux") {
            check.measure("daemon.batched_vs_single", batched_vs_single);
            match uring_vs_batched {
                Some(ratio) => check.measure("daemon.uring_vs_batched", ratio),
                None => check.skip("daemon.uring_vs_batched", "the kernel grants no io_uring"),
            }
        } else {
            for metric in ["daemon.batched_vs_single", "daemon.uring_vs_batched"] {
                check
                    .skip(metric, "non-Linux fallback io: transport ratios are 1x by construction");
            }
        }
        check.finish();
    }
}
