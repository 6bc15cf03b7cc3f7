//! `geobench` — one command for what a user of this system sees: how long
//! the simulator takes per run, and how fast and at what CPU cost
//! `geodnsd` answers; plus, in a separate traced pass, what each layer
//! costs.
//!
//! ```text
//! geobench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--repeat N]
//! ```
//!
//! Run it from the repository root (`cargo run --release --manifest-path
//! geobench/Cargo.toml -- …`). With `--workload` the workload runs in this
//! process and the last line of standard output is one JSON object,
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`:
//! untraced, the metrics are the end-to-end ones; with `--trace 1`, the
//! per-layer ones, and the spans go to `target/geobench/trace-<workload>.jsonl`.
//! Without `--workload`, or with `--repeat N`, every run happens in a child
//! process of its own, and the summary gives each metric's median,
//! quartiles and (max − min) / median. `--seed` makes the inputs (the
//! simulator's seed, the DNS arrival schedule and query mix); `--seconds`
//! is the measured time, 30% for simulator repetitions and 70% for DNS.
//!
//! Every run checks its outputs and exits non-zero when a check fails:
//! every simulator repetition must produce a byte-identical report (its
//! digest is printed) and conserve hits (`issued == served + failed + in
//! flight`); every DNS answer must fit its query; the daemon's datagram
//! accounting must balance (`sent == received + rx_drops`, `received ==
//! answered + ctl + dropped`, `dropped` ≤ runts sent, every answer sent
//! arrives or is counted as a drop at the generator); every control ack
//! must be `GDNSCTL1 ok`; with live estimation the learned weights must sit
//! within 0.05 of the true Zipf shares. A generator that falls behind its
//! schedule (lateness p99 above 1 ms) gets a warning on standard error, not
//! a failure: that is the host's doing, and the run's latency figures
//! then measure the host, not the daemon.
//!
//! # Workloads
//!
//! Each workload pairs a simulator configuration with a daemon traffic
//! mix, so every end-to-end metric is measured on every workload:
//!
//! * `paper-plain` — the paper's configuration (DRR2-TTL/S_K, H35, 500
//!   clients, 20 domains, 1800 s warm-up + 18000 s), which every figure
//!   and sweep reruns hundreds of times: per-event handler work dominates
//!   (9 in 10 events are departures) and the pending set is ~500 events.
//!   Its DNS traffic is 1998's: every query a plain `IN A`, which the
//!   daemon answers on its allocation-free fast path, with oracle weights
//!   and no estimation loop.
//! * `internet-resolver` — the same model at 1M clients over 10k Zipf
//!   domains (H20, 5 s + 15 s, CDFs capped at 2^20 samples, one shard):
//!   the pending set holds ~1M events and client state ~230 MB, so the
//!   engine and memory layout dominate. Its DNS traffic stands for what
//!   today's recursive resolvers send, with the daemon learning the
//!   domain weights live (EMA α = 0.5, collecting every 0.5 s). The mix is
//!   an assumption, not a measurement: no traffic study was at hand, so
//!   90% of queries carry an EDNS0 OPT record, 5% are plain, 4% ask for
//!   names in the zone that do not exist and 1% are runts shorter than a
//!   header. Only the advertised UDP size, 1232 bytes, has a source: it is
//!   the default DNS Flag Day 2020 recommended. What the bounded figure
//!   depends on is that most queries carry EDNS0, which the common
//!   resolver implementations send by default; the exact shares move CPU
//!   per answer (the EDNS0 slow path costs about ten times the fast path),
//!   so a change to the mix is a change to the benchmark.
//!
//! DNS traffic comes from 4 source domains (`127.0.d.1`), drawn from a
//! Zipf law with exponent 1.0 as the paper's domain popularity is, to one
//! in-process daemon worker (see the `dns` module): an open loop at 50k
//! queries/s, one at 150k/s, then a closed loop keeping 32 outstanding.
//! The rates are set against the reference machine's closed-loop capacity
//! of 280–360k answers/s: the worker is about a quarter busy at the first
//! and 60–70% at the second.
//!
//! # End-to-end metrics (bounded in `BENCHMARK.json`)
//!
//! | name | unit | what |
//! |---|---|---|
//! | `setup_s` | s | the benchmark's set-up: `setup_sim_s` plus `setup_dns_s` |
//! | `run_s` | s | median wall time of `World::run_metered` over the repetitions |
//! | `peak_heap_mb` | MiB | the most heap the simulator repetitions held live at once |
//! | `cpu_ns_per_answer.r150k` | ns | the daemon worker's CPU time per valid answer at 150k queries/s: the operator's cost, whose inverse is capacity at full load |
//!
//! The two parts of set-up are printed under names of their own:
//! `setup_sim_s`, the median `World::new`, and `setup_dns_s`, the median
//! time from building a daemon shard to its first valid answer over 31
//! start-ups. Only their sum is bounded. Daemon start-up alone (about
//! 25 µs on `paper-plain`, 170 µs with live estimation) spread by up to
//! 0.47 over ten identical runs on the reference machine, above any
//! bound `BENCHMARK.json` may set, because the host sets anew in each run
//! how many start-ups wait on it. On `paper-plain`, `World::new` takes
//! about 30 µs, so daemon start-up is about half of `setup_s` there and
//! a start-up regression shows in it; on `internet-resolver` `World::new`
//! takes about sixty times as long and hides one.
//!
//! CPU per answer is the worker's CPU time over the valid answers between
//! the readings taken when the step starts and stops sending, so work the
//! worker does now and then (the estimator's ingest every 0.5 s) counts
//! in full. The same figure at 50k queries/s is printed, not bounded: the
//! worker sleeps between batches there, so each wake-up's cost falls on
//! fewer answers, and it spread by up to 0.31 over ten identical runs,
//! the most of the timings considered for a bound. One bounded CPU
//! figure is enough to catch a regression on the serve path.
//!
//! The DNS figures a user sees are printed in every run's table:
//! latency quantiles at each rate over every query sent, timed from its
//! due time with a lost query counting as a miss; closed-loop answers per
//! second (`sat_qps`); loss at each rate; the p99 ack time of the control
//! writes (`ctl_ack_p99_us`). They are not in the JSON line: an
//! end-to-end metric there needs a bound of at most 0.25, and on the
//! reference machine these move between identical runs by more than that
//! (`RESULTS.md` has the spreads); they belong to no single layer, so
//! they are not per-layer metrics either.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! Each layer is named after its module; in brackets, the end-to-end
//! metric it should move, and on which workload ("none" predicts no
//! end-to-end effect).
//!
//! * `simcore` — events processed, events/s, and one `Engine` hold step at
//!   the workload's pending-set size [`run_s`: large on
//!   internet-resolver, small on paper-plain].
//! * `server` — queue arrivals and departures, one `WebServer` arrive and
//!   depart [`run_s` on both].
//! * `nameserver` — lookups, hit ratio, one `NsCache` lookup [`run_s`,
//!   minor].
//! * `core` clients — bytes per client [`peak_heap_mb` and `run_s` on
//!   internet-resolver; none on paper-plain]. Scheduler — decisions, the
//!   share constrained by alarms, one `DnsScheduler::resolve` and one
//!   `ingest` [none: decisions are under 0.1% of events and a small share
//!   of the worker's time]. `core.world.attributed_share` (Σ count × unit
//!   cost ÷ `run_s`) and `core.shard.speedup_s2` (one-shard over
//!   two-shard wall time) are diagnostics.
//! * `wire` serve and codec — `handle_into` per query kind, the mean over
//!   the replayed 150k step, the share of queries eligible for the fast
//!   path, `Message::parse` and `write_bytes` [`cpu_ns_per_answer.r150k`
//!   on internet-resolver; none on paper-plain]. Transport — worker busy
//!   share, CPU per answer minus the replayed serve time, kernel drops and
//!   the daemon's counters [`cpu_ns_per_answer.r150k` on both; none on
//!   `run_s`]. Control — writes acked, collections, learned-weight error
//!   [none].
//! * `bench` — the generator's own drops, CPU share and lateness, and the
//!   tracing overhead [validity only].
//!
//! The traced pass records spans (name, start, end, parent, id) around
//! every call it makes into a layer; simulator spans cover `World::new` and
//! `run_metered`, and repetitions alternate with the counters registry off
//! and on; DNS spans cover a sample of generator rounds (each `sendmmsg`
//! and `recvmmsg`) and of queries (due time to answer). The recorded 150k
//! step is then replayed — same bytes, source and time — through a fresh
//! shard. Timing from outside cannot see inside `World::run`; spans inside
//! the program are a later change.
//!
//! # Reading the numbers
//!
//! * **The box.** The reference numbers come from a 2-vCPU virtual machine
//!   (`nproc` = 2): the generator thread is pinned to one vCPU and the
//!   daemon's worker to the other. Traffic crosses the loopback interface,
//!   not a real link, so latencies are host costs (syscalls, wake-ups, the
//!   daemon), never wire time. geodnsd does not set `SO_RCVBUF`, so its
//!   socket queue is `net.core.rmem_default` (212992 bytes there); when
//!   the worker stalls, the kernel drops at that queue and `rx_drops`
//!   counts it.
//! * **Why latency, loss and `sat_qps` are not bounded.** That machine
//!   stalls for 1–6 ms about once a second whatever it runs (a pinned,
//!   idle spin loop sees the same), and the kernel drops a few tenths of a
//!   percent of queries at 150k/s, so the p99s and p99.9 measure the
//!   machine's stalls and drops: with loss above 0.1%, p99.9 is a miss.
//!   Over sets of ten identical runs, the p99s and loss spread by more
//!   than half their median (loss at 50k/s reads 0 in some runs). p50
//!   and p90 at 50k/s, p50 at 150k/s and `sat_qps` spread by 0.06–0.26
//!   while the host was quiet and by 0.4–0.64 when it got busier: the
//!   worker's vCPU wakes when the host schedules it, and the closed loop
//!   saturates both vCPUs. The worker's own CPU time per answer at
//!   150k/s moves least, so that is the bounded DNS figure.
//! * **Why `sat_qps` replaces a search for the highest loss-free rate.**
//!   The kernel drops a few queries at every rate on that machine while
//!   the worker is far from busy, so "the highest rate with zero loss" does
//!   not exist there. The closed loop's answers per second measure
//!   capacity directly, and loss at each fixed rate is reported.
//! * **The EDNS0 fast-path miss.** The daemon's fast path declines any
//!   query with additional records, so an EDNS0 query — which the common
//!   recursive resolver implementations send by default — takes the
//!   parse-based slow path at about ten
//!   times the fast path's cost (`wire.serve.slow_ns` against
//!   `wire.serve.fast_ns`). `internet-resolver` records that cost as the
//!   baseline a later optimisation has to beat; `paper-plain` bypasses it.
//! * **Heap, not resident set.** Resident memory comes in 2 MiB huge pages
//!   on that machine and moved 25% between identical paper-sized runs, so
//!   the bounded figure is the allocator's high-water mark, counted by
//!   this binary's global allocator while the simulator runs. `VmHWM` is
//!   printed beside it.
//! * **Set-up on one CPU.** The daemon's first answer is timed with the
//!   process confined to one CPU, so it does not include the host waking
//!   an idle second vCPU, which doubled it at random.

mod dns;
mod gen;
mod sim;
mod stats;
mod trace;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use geodns_core::EstimatorKind;

use crate::gen::Mix;
use crate::sim::Scale;
use crate::trace::Tracer;

#[global_allocator]
static HEAP: stats::Heap = stats::Heap;

struct Workload {
    name: &'static str,
    scale: Scale,
    dns: dns::Spec,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "paper-plain",
        scale: Scale::Paper,
        dns: dns::Spec { mix: Mix::PLAIN, estimator: EstimatorKind::Oracle, collect: None },
    },
    Workload {
        name: "internet-resolver",
        scale: Scale::Internet,
        dns: dns::Spec {
            mix: Mix::RESOLVER,
            estimator: EstimatorKind::Measured { collect_interval_s: 0.5, ema_alpha: 0.5 },
            collect: Some(Duration::from_millis(500)),
        },
    },
];

/// Share of the run's seconds the simulator repetitions get; the DNS
/// steps get the rest.
const SIM_SHARE: f64 = 0.3;

/// A run's outcome in the shape the final JSON line reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    extra: Vec<(&'static str, f64, &'static str)>,
}

fn run_workload(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(traced);
    let total = Duration::from_secs(seconds);
    let cfg = w.scale.config(seed);
    stats::Heap::start();
    let sim = sim::run(&cfg, total.mul_f64(SIM_SHARE), &mut tracer);
    let peak_heap = stats::Heap::stop();
    let sim = sim?;
    // Sampled before the generator allocates its per-query records.
    let peak_rss = stats::peak_rss_mib();
    let dns = dns::run(&w.dns, seed, total.mul_f64(1.0 - SIM_SHARE), &mut tracer)?;

    let mut failures: Vec<String> = sim.failures.iter().map(|f| format!("sim: {f}")).collect();
    failures.extend(dns.failures.iter().map(|f| format!("dns: {f}")));
    let failed = sim.failures.len() as u64 + dns.failed;
    // A generator that cannot keep its schedule measures the host, not the
    // daemon: the latency figures are flagged, but the program's outputs
    // are no less correct, so the run does not fail.
    let late_p99_us = dns.r150k.late_p99_us.max(dns.r50k.late_p99_us);
    if late_p99_us > 1000.0 {
        eprintln!(
            "geobench: {}: warning: generator ran late (lateness p99 {late_p99_us:.0} us > 1 ms); \
             this run's latency figures measure the host",
            w.name
        );
    }
    println!(
        "{}: {} simulator reps, report digest {}; {} answers and checks judged on the daemon \
         side; generator and worker pinned apart: {}",
        w.name,
        sim.setup_s.len() + sim.traced_run_s.len(),
        sim.digest,
        dns.attempted,
        dns.pinned
    );
    let (setup_sim_s, setup_dns_s) = (stats::median(&sim.setup_s), stats::median(&dns.setup_s));
    let run_s = stats::median(&sim.run_s);
    let metrics = if !traced {
        vec![
            ("setup_s", setup_sim_s + setup_dns_s, "s"),
            ("run_s", run_s, "s"),
            ("peak_heap_mb", peak_heap, "MiB"),
            ("cpu_ns_per_answer.r150k", dns.r150k.cpu_ns_per_answer, "ns"),
        ]
    } else {
        let mut layers = layer_metrics(w, &cfg, &sim, &dns, run_s, &mut tracer)?;
        layers.push(("bench.gen.late_p99_us", late_p99_us, "us"));
        layers
    };
    // Printed in the table on every pass, never part of the JSON line.
    let mut extra = vec![
        ("setup_sim_s", setup_sim_s, "s"),
        ("setup_dns_s", setup_dns_s, "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
        ("cpu_ns_per_answer.r50k", dns.r50k.cpu_ns_per_answer, "ns"),
        ("late_p99_us", late_p99_us, "us"),
        ("worker_busy.r150k", dns.r150k.worker_busy, "ratio"),
        ("rx_drops", dns.rx_drops as f64, "count"),
        ("gen_rx_drops", dns.gen_rx_drops as f64, "count"),
    ];
    extra.extend(dns_figures(&dns));
    if traced {
        print_spans(&tracer);
        let path = std::path::PathBuf::from(format!("target/geobench/trace-{}.jsonl", w.name));
        tracer.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    Ok(Outcome {
        attempted: (sim.setup_s.len() + sim.traced_run_s.len()) as u64 + dns.attempted,
        failed,
        failures,
        metrics,
        extra,
    })
}

/// The traced pass's per-layer numbers.
fn layer_metrics(
    w: &Workload,
    cfg: &geodns_core::SimConfig,
    sim: &sim::Run,
    dns: &dns::Run,
    run_s: f64,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let obs = sim.obs.as_ref().ok_or("the traced pass made no counters snapshot")?;
    let costs = sim::costs(w.scale, cfg, tracer);
    let speedup = sim::shard_speedup(cfg, tracer)?;
    let replay = dns::replay(&w.dns, cfg.seed, &dns.recorded, tracer);
    let events = sim.metrics.events as f64;
    let lookups = (obs.ns_hits + obs.ns_misses_cold + obs.ns_misses_expired) as f64;
    let decisions = obs.dns_decisions as f64;
    let attributed = events * costs.hold_ns
        + obs.queue_departures as f64 * costs.arrive_depart_ns
        + lookups * costs.lookup_ns
        + decisions * costs.resolve_ns;
    let traced_run_s = stats::median(&sim.traced_run_s);
    let r150k = &dns.r150k;
    for e in &obs.events {
        println!(
            "  sim events {:<14} {:>12} ({:.1}%)",
            e.kind,
            e.count,
            100.0 * e.count as f64 / events
        );
    }
    Ok(vec![
        ("simcore.events", events, "count"),
        ("simcore.events_per_s", events / run_s, "1/s"),
        ("simcore.engine.hold_ns", costs.hold_ns, "ns"),
        ("server.queue_arrivals", obs.queue_arrivals as f64, "count"),
        ("server.queue_departures", obs.queue_departures as f64, "count"),
        ("server.arrive_depart_ns", costs.arrive_depart_ns, "ns"),
        ("nameserver.lookups", lookups, "count"),
        ("nameserver.hit_ratio", obs.ns_hits as f64 / lookups.max(1.0), "ratio"),
        ("nameserver.lookup_ns", costs.lookup_ns, "ns"),
        ("core.clients.bytes_per_client", sim.metrics.bytes_per_client(), "B"),
        ("core.scheduler.decisions", decisions, "count"),
        (
            "core.scheduler.constrained_ratio",
            obs.dns_decisions_constrained as f64 / decisions.max(1.0),
            "ratio",
        ),
        ("core.scheduler.resolve_ns", costs.resolve_ns, "ns"),
        ("core.estimator.ingest_ns", replay.ingest_ns, "ns"),
        ("core.world.attributed_share", attributed / 1e9 / run_s, "ratio"),
        ("core.shard.speedup_s2", speedup, "ratio"),
        ("wire.serve.fast_ns", replay.fast_ns, "ns"),
        ("wire.serve.slow_ns", replay.slow_ns, "ns"),
        ("wire.serve.nxdomain_ns", replay.nxdomain_ns, "ns"),
        ("wire.serve.replay_mean_ns", replay.mean_serve_ns, "ns"),
        ("wire.serve.fastpath_share", replay.fastpath_share, "ratio"),
        ("wire.codec.parse_ns", replay.parse_ns, "ns"),
        ("wire.codec.encode_ns", replay.encode_ns, "ns"),
        ("wire.daemon.worker_busy.r50k", dns.r50k.worker_busy, "ratio"),
        ("wire.daemon.worker_busy.r150k", r150k.worker_busy, "ratio"),
        ("wire.transport_ns_per_answer", r150k.cpu_ns_per_answer - replay.mean_serve_ns, "ns"),
        ("wire.mmsg.rx_drops", dns.rx_drops as f64, "count"),
        ("wire.daemon.received", dns.received as f64, "count"),
        ("wire.daemon.answered", dns.answered as f64, "count"),
        ("wire.daemon.dropped", dns.dropped as f64, "count"),
        ("wire.daemon.tx_errors", dns.tx_errors as f64, "count"),
        ("wire.daemon.recv_errors", dns.recv_errors as f64, "count"),
        ("wire.daemon.ctl", dns.ctl as f64, "count"),
        ("wire.ctl.ok", dns.ctl_ok as f64, "count"),
        ("wire.daemon.collections", dns.collections as f64, "count"),
        ("wire.daemon.weight_err_max", dns.weight_err_max, "ratio"),
        ("bench.gen.rx_drops", dns.gen_rx_drops as f64, "count"),
        ("bench.gen.cpu_share", r150k.gen_cpu_share, "ratio"),
        // Tracing overhead as the slowdown it causes: longer simulator
        // runs, fewer closed-loop answers per second.
        ("bench.trace_overhead_pct.sim", 100.0 * (traced_run_s / run_s - 1.0), "%"),
        (
            "bench.trace_overhead_pct.dns",
            100.0 * (1.0 - dns.closed.answers_per_s / dns.closed_untraced_per_s),
            "%",
        ),
    ])
}

/// The DNS figures a user sees that this machine cannot hold steady
/// enough to bound (see the module docs): printed on every pass, never
/// gated.
fn dns_figures(dns: &dns::Run) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("sat_qps", dns.closed.answers_per_s, "1/s"),
        ("p50_us.r50k", dns.r50k.p50_us, "us"),
        ("p90_us.r50k", dns.r50k.p90_us, "us"),
        ("p99_us.r50k", dns.r50k.p99_us, "us"),
        ("p50_us.r150k", dns.r150k.p50_us, "us"),
        ("p99_us.r150k", dns.r150k.p99_us, "us"),
        ("p999_us.r150k", dns.r150k.p999_us, "us"),
        ("loss_pct.r50k", dns.r50k.loss_pct(), "%"),
        ("loss_pct.r150k", dns.r150k.loss_pct(), "%"),
        ("ctl_ack_p99_us", dns.ctl_ack_p99_us, "us"),
    ]
}

fn print_spans(tracer: &Tracer) {
    println!("  {:<28} {:>9} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for (name, count, total, own) in trace::by_name(tracer.spans()) {
        println!("  {name:<28} {count:>9} {:>12.3} {:>12.3}", total as f64 / 1e6, own as f64 / 1e6);
    }
}

/// A value for the tables: four decimals, or four significant digits
/// for the small ones (set-up times are microseconds).
fn show(v: f64) -> String {
    if v.abs() < 0.1 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Formats the final line. A non-finite value, which JSON cannot carry, is
/// written as 0; [`run_here`] counts it as a failure.
fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1998, seconds: 40, trace: false, repeat: 1 };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--repeat" => {
                args.repeat = value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?;
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") | Some("1") => it.next().as_deref() == Some("1"),
                    _ => true,
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: geobench [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--repeat N]",
                    WORKLOADS.map(|w| w.name).join("|")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    if args.seconds == 0 || args.repeat == 0 {
        return Err("--seconds and --repeat must be at least 1".into());
    }
    Ok(args)
}

/// Runs one workload here and prints its table and JSON line.
fn run_here(w: &Workload, args: &Args) -> ExitCode {
    println!(
        "geobench {} seed={} seconds={} trace={} (available parallelism {})",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut outcome = match run_workload(w, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("geobench: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in outcome.metrics.iter().chain(&outcome.extra) {
        println!("  {name:<36} {:>16} {unit}", show(*value));
    }
    for (name, ..) in outcome.metrics.iter().filter(|m| !m.1.is_finite()) {
        outcome.failed += 1;
        outcome.failures.push(format!("{name} is not a finite number"));
    }
    for f in &outcome.failures {
        eprintln!("geobench: {}: FAILED {f}", w.name);
    }
    let metrics: Vec<(String, f64, String)> =
        outcome.metrics.iter().map(|&(n, v, u)| (n.to_string(), v, u.to_string())).collect();
    let correct = outcome.failed == 0;
    println!("{}", json_line(correct, outcome.attempted, outcome.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs each selected workload `repeat` times, each run in a child
/// process, and summarises every metric across the runs.
fn run_children(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("geobench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut attempted, mut failed, mut ok) = (0u64, 0u64, true);
    let mut summary: Vec<(String, f64, String)> = Vec::new();
    for w in WORKLOADS.iter().filter(|w| args.workload.as_deref().is_none_or(|n| n == w.name)) {
        let mut runs: Vec<Vec<(String, f64, String)>> = Vec::new();
        for _ in 0..args.repeat {
            let child = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let out = match child {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("geobench: spawn {}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            ok &= out.status.success();
            let Some(line) = text.lines().last() else { continue };
            let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else { continue };
            attempted += v["attempted"].as_u64().unwrap_or(0);
            failed += v["failed"].as_u64().unwrap_or(0);
            let Some(metrics) = v["metrics"].as_object() else { continue };
            runs.push(
                metrics
                    .iter()
                    .map(|(k, m)| {
                        let value = m["value"].as_f64().unwrap_or(f64::NAN);
                        (k.clone(), value, m["unit"].as_str().unwrap_or("").to_string())
                    })
                    .collect(),
            );
        }
        let Some(first) = runs.first() else { continue };
        println!("\n{} over {} runs", w.name, runs.len());
        println!(
            "  {:<36} {:>14} {:>14} {:>14} {:>9} unit",
            "metric", "median", "q1", "q3", "range/med"
        );
        for (i, (name, _, unit)) in first.iter().enumerate() {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.get(i).map(|m| m.1)).collect();
            let med = stats::median(&values);
            let (q1, q3) = stats::quartiles(&values);
            let s = stats::sorted(values);
            let range = (s[s.len() - 1] - s[0]) / med;
            let (med_, q1, q3) = (show(med), show(q1), show(q3));
            println!("  {name:<36} {med_:>14} {q1:>14} {q3:>14} {range:>9.4} {unit}");
            summary.push((format!("{}/{name}", w.name), med, unit.clone()));
        }
    }
    ok &= failed == 0;
    println!("{}", json_line(ok, attempted.max(1), failed, &summary));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("geobench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_deref() {
        Some(name) if args.repeat == 1 => {
            let w = WORKLOADS.iter().find(|w| w.name == name).expect("validated workload name");
            run_here(w, &args)
        }
        _ => run_children(&args),
    }
}
