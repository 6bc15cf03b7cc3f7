//! The DNS half of a workload: `geodnsd` spawned in-process with one
//! worker, driven over loopback by one generator thread.
//!
//! The generator sends from one socket per source domain (`127.0.d.1`)
//! plus one control socket. It runs three steps after a short warm-up: an
//! open loop at 50k queries/s, an open loop at 150k queries/s, and a
//! closed loop that keeps 32 queries outstanding. Open-loop arrivals are a
//! seeded Poisson schedule; the thread polls its sockets without blocking
//! (sleeping 100 µs only when nothing is due), sends every query that has
//! come due, and times each answer from the query's due time, so a stall
//! anywhere also delays the queries behind it. A query unanswered within
//! 1 s is lost and counts as missing every latency limit. Every ten times
//! a second it writes a `GDNSCTL1 backlogs` control message, as a web
//! server farm reporting its backlogs would.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use geodns_core::EstimatorKind;
use geodns_wire::mmsg::{self, RecvBatch, SendBatch};
use geodns_wire::{AuthoritativeServer, Daemon, DaemonConfig, Message};

use crate::gen::{self, Draw, Kind, Mix, Pending, Query, Schedule, DOMAINS, SERVERS};
use crate::stats::{self, ns};
use crate::trace::{Tracer, ROOT};

/// A query unanswered this long is lost.
const LOSS_NS: u64 = 1_000_000_000;
/// A lost query's latency in the quantiles: it misses every limit.
const MISS_US: f64 = LOSS_NS as f64 / 1e3;
/// The daemon's single worker thread (`geodnsd-worker-0`) as `/proc`
/// names it: the kernel keeps only the first 15 bytes of a thread name.
const WORKER: &str = "geodnsd-worker-";
/// Control writes go out this often.
const CTL_EVERY_NS: u64 = 100_000_000;
/// Datagrams per `sendmmsg`/`recvmmsg` on the generator's sockets.
const BATCH: usize = 64;
/// Queries the closed loop keeps outstanding.
const WINDOW: usize = 32;
/// How long the set-up query, the worker thread's start and the weights
/// readback may take before the run gives up: far past their usual
/// microseconds, so a host that stalls the process does not fail it.
const PATIENCE: Duration = Duration::from_secs(5);
/// Daemons spawned, one after another, to time set-up.
const SETUP_SPAWNS: usize = 31;
/// One generator round in this many records its syscalls as spans (the
/// generator polls about two million times a second), and one query in
/// this many records its due-to-answer span.
const SAMPLE_ROUNDS: u64 = 4096;
const SAMPLE_QUERIES: u64 = 64;

/// `lat_ns` markers: still waiting, lost, or a runt (owed no answer).
const OPEN: u32 = u32::MAX;
const LOST: u32 = u32::MAX - 1;
const NO_ANSWER: u32 = u32::MAX - 2;

/// The daemon configuration and traffic of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub mix: Mix,
    pub estimator: EstimatorKind,
    /// The live estimation loop's collection interval, if it runs.
    pub collect: Option<Duration>,
}

impl Spec {
    fn shard(&self, seed: u64) -> AuthoritativeServer {
        AuthoritativeServer::example_shard_with(0, seed, self.estimator)
    }

    fn config(&self) -> DaemonConfig {
        let mut cfg = DaemonConfig::new(SocketAddr::from(([127, 0, 0, 1], 0)));
        cfg.collect_interval = self.collect;
        cfg
    }
}

/// One sent datagram and what became of it.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub query: Query,
    pub id: u16,
    /// Due time, ns from the step's start.
    pub due_ns: u64,
    /// How late the generator sent it, ns.
    pub late_ns: u32,
    /// Due-to-answer latency in ns, or one of the markers above.
    pub lat_ns: u32,
}

/// What one step measured.
#[derive(Debug, Clone, Default)]
pub struct Step {
    /// Queries owed an answer, and how many got a valid one in time.
    pub queries: u64,
    pub answered: u64,
    /// Latency quantiles over every query owed an answer, a lost one
    /// counting as [`MISS_US`], and the p99 of how late the generator
    /// sent (µs).
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub late_p99_us: f64,
    /// The worker's CPU time over wall time while the step sent.
    pub worker_busy: f64,
    /// The worker's CPU ns per valid answer and valid answers per second,
    /// from the step's first reading to its last.
    pub cpu_ns_per_answer: f64,
    pub answers_per_s: f64,
    /// The generator thread's CPU time over the step's wall time.
    pub gen_cpu_share: f64,
}

impl Step {
    pub fn loss_pct(&self) -> f64 {
        100.0 * (self.queries - self.answered) as f64 / self.queries.max(1) as f64
    }
}

/// Everything the DNS half of a run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds from building a shard to its daemon's first valid answer.
    pub setup_s: Vec<f64>,
    pub r50k: Step,
    pub r150k: Step,
    pub closed: Step,
    /// Closed-loop answers/s with spans off (traced pass only).
    pub closed_untraced_per_s: f64,
    /// Whether the generator and the worker each got a CPU of their own.
    pub pinned: bool,
    /// The daemon's own accounting at shutdown.
    pub received: u64,
    pub answered: u64,
    pub ctl: u64,
    pub dropped: u64,
    pub tx_errors: u64,
    pub recv_errors: u64,
    pub rx_drops: u64,
    pub collections: u64,
    /// Largest gap between a learned weight and the true Zipf share.
    pub weight_err_max: f64,
    pub ctl_ok: u64,
    pub ctl_ack_p99_us: f64,
    /// Datagrams the generator's own sockets dropped (answers lost on the
    /// way back, not at the daemon).
    pub gen_rx_drops: u64,
    /// Answers, control writes and checks judged; how many failed, and
    /// why.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The 150k step's datagrams, kept for the traced replay.
    pub recorded: Vec<Rec>,
}

/// Times [`SETUP_SPAWNS`] daemon start-ups: from building the shard to the
/// first valid answer. Each daemon is shut down before the next starts.
fn setup_times(spec: &Spec, seed: u64) -> Result<Vec<f64>, String> {
    let client = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("setup bind: {e}"))?;
    client.set_read_timeout(Some(PATIENCE)).map_err(|e| e.to_string())?;
    let q = Query { domain: 0, kind: Kind::Plain, variant: 0 };
    let (mut bytes, mut buf) = (Vec::new(), [0u8; 512]);
    let mut times = Vec::with_capacity(SETUP_SPAWNS);
    for i in 0..SETUP_SPAWNS {
        let id = i as u16;
        gen::encode(&q, id, &mut bytes);
        let t0 = Instant::now();
        let daemon = Daemon::spawn(&spec.config(), vec![spec.shard(seed)])?;
        let answer = client
            .send_to(&bytes, daemon.local_addr())
            .and_then(|_| client.recv_from(&mut buf))
            .map_err(|e| format!("setup query: {e}"))
            .and_then(|(n, _)| gen::validate(&q, id, &buf[..n]).map_err(str::to_string));
        let elapsed = t0.elapsed().as_secs_f64();
        let report = daemon.shutdown();
        answer.map_err(|e| format!("daemon start-up: {e}"))?;
        if report.totals().answered != 1 {
            return Err("daemon start-up: expected exactly one answer".into());
        }
        times.push(elapsed);
    }
    Ok(times)
}

/// Runs the DNS half: set-up timing, then warm-up and the three steps on
/// one daemon, then the conservation and estimation checks. `budget` is
/// split 5:5:4 across the steps.
pub fn run(spec: &Spec, seed: u64, budget: Duration, tracer: &mut Tracer) -> Result<Run, String> {
    // Set-up is timed on one CPU, which the daemon's threads inherit, so
    // the first answer never waits for the host to wake an idle second
    // vCPU: that wait is the host's, and it swings 2x from run to run.
    let allowed = stats::affinity(0);
    if let Some(first) = allowed.as_ref().and_then(|mask| stats::nth_cpu(mask, 0)) {
        stats::set_affinity(0, &first);
    }
    let setup_s = setup_times(spec, seed);
    if let Some(mask) = &allowed {
        stats::set_affinity(0, mask);
    }
    let setup_s = setup_s?;
    let daemon = Daemon::spawn(&spec.config(), vec![spec.shard(seed)])?;
    let target = daemon.local_addr();
    let traffic = worker_tid().and_then(|worker| {
        let pinned = allowed.as_ref().is_some_and(|mask| pin_apart(mask, worker));
        drive(spec, seed, budget, target, worker, tracer).map(|(run, sent)| (run, sent, pinned))
    });
    let report = daemon.shutdown();
    if let Some(mask) = &allowed {
        stats::set_affinity(0, mask);
    }
    let (mut run, sent, pinned) = traffic?;
    run.setup_s = setup_s;
    run.pinned = pinned;

    let totals = report.totals();
    run.received = totals.received;
    run.answered = totals.answered;
    run.ctl = totals.ctl;
    run.dropped = totals.dropped;
    run.tx_errors = totals.tx_errors;
    run.recv_errors = totals.recv_errors;
    run.rx_drops = totals.rx_drops;
    run.collections = report.collections();
    let mut checks = vec![
        (
            sent.datagrams == totals.received + totals.rx_drops,
            format!(
                "sent {} != received {} + rx_drops {}",
                sent.datagrams, totals.received, totals.rx_drops
            ),
        ),
        (
            totals.received == totals.answered + totals.ctl + totals.dropped,
            format!(
                "received {} != answered {} + ctl {} + dropped {}",
                totals.received, totals.answered, totals.ctl, totals.dropped
            ),
        ),
        (
            totals.dropped <= sent.runts,
            format!("dropped {} > runts sent {}", totals.dropped, sent.runts),
        ),
        (
            totals.answered == sent.replies + run.gen_rx_drops,
            format!(
                "answered {} != answers received {} + generator rx_drops {}",
                totals.answered, sent.replies, run.gen_rx_drops
            ),
        ),
    ];
    if spec.collect.is_some() {
        checks.push((
            run.weight_err_max <= 0.05,
            format!("learned weights off the true Zipf shares by {:.4}", run.weight_err_max),
        ));
    }
    run.attempted += checks.len() as u64;
    for (_, why) in checks.into_iter().filter(|c| !c.0) {
        run.failed += 1;
        run.failures.push(why);
    }
    Ok(run)
}

/// The thread id of the daemon's single worker, which names itself once it
/// starts running.
fn worker_tid() -> Result<i32, String> {
    let started = Instant::now();
    loop {
        match stats::thread_ids(WORKER)[..] {
            [tid] => return Ok(tid),
            [] if started.elapsed() < PATIENCE => {
                std::thread::sleep(Duration::from_millis(1));
            }
            ref found => {
                return Err(format!("expected one {WORKER}* thread, found {}", found.len()))
            }
        }
    }
}

/// Gives the generator (the calling thread) the first CPU of `allowed` and
/// the daemon's worker the second, so neither waits behind the other;
/// best-effort, false when either pin did not take.
fn pin_apart(allowed: &stats::CpuMask, worker: i32) -> bool {
    match (stats::nth_cpu(allowed, 0), stats::nth_cpu(allowed, 1)) {
        (Some(gen_cpu), Some(worker_cpu)) => {
            stats::set_affinity(worker, &worker_cpu) && stats::set_affinity(0, &gen_cpu)
        }
        _ => false,
    }
}

/// Datagram totals the generator keeps for the conservation checks.
#[derive(Debug, Default, Clone, Copy)]
struct Sent {
    /// Every datagram the kernel accepted for the daemon, control included.
    datagrams: u64,
    runts: u64,
    /// Datagrams received back on the domain sockets.
    replies: u64,
}

fn drive(
    spec: &Spec,
    seed: u64,
    budget: Duration,
    target: SocketAddr,
    worker: i32,
    tracer: &mut Tracer,
) -> Result<(Run, Sent), String> {
    let part = |share: f64| ns(budget.mul_f64(share));
    let mut t = Traffic::new(target, worker, tracer)?;
    t.open_loop("dns.warmup", Schedule::new(seed, 1, spec.mix, 50_000.0, 500_000_000));
    let r50k =
        t.open_loop("dns.r50k", Schedule::new(seed, 2, spec.mix, 50_000.0, part(5.0 / 14.0)));
    let start_150k = t.recs.len();
    let r150k =
        t.open_loop("dns.r150k", Schedule::new(seed, 3, spec.mix, 150_000.0, part(5.0 / 14.0)));
    let end_150k = t.recs.len();
    let closed_ns = part(4.0 / 14.0);
    let mut closed_untraced_per_s = 0.0;
    if t.tracer.enabled() {
        // Tracing overhead: the same closed loop with spans off, then on.
        t.tracing = false;
        let untraced = t.closed_loop("dns.closed", Draw::new(seed, 5, spec.mix), closed_ns);
        closed_untraced_per_s = untraced.answers_per_s;
        t.tracing = true;
    }
    let closed = t.closed_loop("dns.closed", Draw::new(seed, 4, spec.mix), closed_ns);
    // Every query is settled; collect what is still queued (late answers
    // to lost queries) so the reply count is complete.
    t.drain(Instant::now(), true);
    t.ctl.settle()?;
    let weights = t.ctl.weights()?;
    if weights.len() != DOMAINS {
        return Err(format!("weights readback has {} values for {DOMAINS} domains", weights.len()));
    }
    let truth = stats::Zipf::new(DOMAINS, 1.0).probs();
    let weight_err_max =
        weights.iter().zip(&truth).map(|(w, p)| (w - p).abs()).fold(0.0_f64, f64::max);
    let mut run = Run {
        r50k,
        r150k,
        closed,
        closed_untraced_per_s,
        weight_err_max,
        ctl_ok: t.ctl.ok,
        ctl_ack_p99_us: stats::quantile(&stats::sorted(t.ctl.ack_us.clone()), 0.99),
        gen_rx_drops: t.socks.iter().map(|s| s.rx.kernel_drops()).sum(),
        ..Run::default()
    };
    let answers = t.recs.iter().filter(|r| r.query.kind.answered()).count() as u64;
    run.attempted = answers + t.ctl.writes;
    run.failed = t.invalid + t.ctl.bad;
    if t.invalid > 0 {
        run.failures.push(format!("{} invalid answers, first: {}", t.invalid, t.first_invalid));
    }
    if t.ctl.bad > 0 {
        run.failures.push(format!("{} control acks were not `GDNSCTL1 ok`", t.ctl.bad));
    }
    if t.tracer.enabled() {
        run.recorded = t.recs[start_150k..end_150k].to_vec();
    }
    let sent = Sent {
        datagrams: t.sent + t.ctl.writes + 1, // + the weights query
        runts: t.recs.iter().filter(|r| r.query.kind == Kind::Runt).count() as u64,
        replies: t.replies,
    };
    Ok((run, sent))
}

/// One source-domain socket with its batch arenas and id table.
struct Sock {
    udp: UdpSocket,
    tx: SendBatch,
    rx: RecvBatch,
    pending: Pending,
    /// Queries from this socket still waiting for an answer; an empty
    /// socket is not polled, which keeps the generator's rounds short.
    open: usize,
}

/// A reading taken when a step starts sending and again when it has sent
/// its last query: step time, the worker's CPU time and the valid answers
/// so far.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    at_ns: u64,
    worker_cpu_ns: u64,
    valid: u64,
}

/// The generator's state across all steps. Records are never cleared, so
/// an index names one datagram for the whole run and an answer can never
/// be matched to a query of a later step.
struct Traffic<'t> {
    target: SocketAddr,
    worker: i32,
    socks: Vec<Sock>,
    recs: Vec<Rec>,
    /// Every record before this one is answered, lost or a runt.
    first_open: usize,
    outstanding: usize,
    sent: u64,
    replies: u64,
    /// Valid answers that arrived within the loss limit.
    valid: u64,
    invalid: u64,
    first_invalid: String,
    per_server: [u64; SERVERS],
    /// The reading taken when the current step began.
    start: Sample,
    ctl: Ctl,
    tracer: &'t mut Tracer,
    tracing: bool,
    /// The current step's span and its start on the tracer's clock.
    step_span: u32,
    step_origin_ns: u64,
    round_span: u32,
    rounds: u64,
}

impl<'t> Traffic<'t> {
    fn new(target: SocketAddr, worker: i32, tracer: &'t mut Tracer) -> Result<Self, String> {
        let socks = (0..DOMAINS)
            .map(|d| {
                let udp = UdpSocket::bind(SocketAddr::from(([127, 0, d as u8, 1], 0)))
                    .map_err(|e| format!("bind 127.0.{d}.1: {e}"))?;
                udp.connect(target).map_err(|e| format!("connect: {e}"))?;
                udp.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
                // Drop counting is best-effort, like the daemon's.
                let _ = mmsg::enable_rxq_ovfl(&udp);
                Ok(Sock {
                    udp,
                    tx: SendBatch::new(BATCH, 512),
                    rx: RecvBatch::new(BATCH, 512),
                    pending: Pending::new(),
                    open: 0,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let tracing = tracer.enabled();
        Ok(Traffic {
            target,
            worker,
            socks,
            recs: Vec::new(),
            first_open: 0,
            outstanding: 0,
            sent: 0,
            replies: 0,
            valid: 0,
            invalid: 0,
            first_invalid: String::new(),
            per_server: [0; SERVERS],
            start: Sample::default(),
            ctl: Ctl::new(target)?,
            tracer,
            tracing,
            step_span: ROOT,
            step_origin_ns: 0,
            round_span: ROOT,
            rounds: 0,
        })
    }

    /// Sends every query of `schedule` when it comes due and waits for the
    /// answers; the step ends when each query is answered or lost.
    fn open_loop(&mut self, name: &'static str, schedule: Schedule) -> Step {
        let mut schedule = schedule.peekable();
        let (origin, first, gen_cpu) = self.begin(name);
        let mut stop = None;
        loop {
            let now = ns(origin.elapsed());
            let next_due = schedule.peek().map(|&(due, _)| due);
            self.begin_round();
            while let Some(&(due, q)) = schedule.peek() {
                if due > now {
                    break;
                }
                schedule.next();
                self.stage(q, due, now);
            }
            self.flush();
            if stop.is_none() && schedule.peek().is_none() {
                stop = Some(self.reading(now));
            }
            let got = self.drain(origin, false);
            self.expire(now);
            self.end_round();
            self.ctl.tick(&self.per_server);
            if next_due.is_none() && self.outstanding == 0 {
                break;
            }
            if !got && next_due.is_none_or(|due| due > now + 200_000) {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        self.end(origin, first, gen_cpu, stop)
    }

    /// Keeps [`WINDOW`] queries outstanding for `duration_ns`, replacing
    /// each as soon as it is answered or lost; runts ride along unawaited.
    fn closed_loop(&mut self, name: &'static str, mut draw: Draw, duration_ns: u64) -> Step {
        let (origin, first, gen_cpu) = self.begin(name);
        let mut stop = None;
        loop {
            let now = ns(origin.elapsed());
            let open = now < duration_ns;
            if !open && stop.is_none() {
                stop = Some(self.reading(now));
            }
            self.begin_round();
            while open && self.outstanding < WINDOW {
                self.stage(draw.next(), now, now);
            }
            self.flush();
            self.drain(origin, false);
            self.expire(now);
            self.end_round();
            self.ctl.tick(&self.per_server);
            if !open && self.outstanding == 0 {
                break;
            }
        }
        self.end(origin, first, gen_cpu, stop)
    }

    fn begin(&mut self, name: &'static str) -> (Instant, usize, u64) {
        self.step_span = self.tracer.open(name, ROOT);
        let origin = Instant::now();
        self.step_origin_ns = self.tracer.at_ns(origin);
        self.start = self.reading(0);
        (origin, self.recs.len(), stats::own_cpu_ns())
    }

    /// Closes the step; `stop` is the reading taken once it had sent its
    /// last query.
    fn end(&mut self, origin: Instant, first: usize, gen_cpu: u64, stop: Option<Sample>) -> Step {
        let wall_s = origin.elapsed().as_secs_f64();
        let gen_cpu_ns = stats::own_cpu_ns().saturating_sub(gen_cpu);
        self.tracer.close(self.step_span);
        self.step_span = ROOT;
        summarize(&self.recs[first..], self.start, stop.unwrap_or(self.start), wall_s, gen_cpu_ns)
    }

    fn reading(&self, at_ns: u64) -> Sample {
        Sample { at_ns, worker_cpu_ns: stats::thread_cpu_ns(self.worker), valid: self.valid }
    }

    fn sampled_round(&self) -> bool {
        self.tracing && self.rounds.is_multiple_of(SAMPLE_ROUNDS)
    }

    fn begin_round(&mut self) {
        self.rounds += 1;
        if self.sampled_round() {
            self.round_span = self.tracer.open("gen.round", self.step_span);
        }
    }

    fn end_round(&mut self) {
        if self.sampled_round() {
            self.tracer.close(self.round_span);
        }
    }

    /// Stages `q` (due at `due_ns`, staged at `now_ns`) on its domain's
    /// socket, flushing that socket when its batch is full.
    fn stage(&mut self, q: Query, due_ns: u64, now_ns: u64) {
        let index = self.recs.len() as u32;
        let d = usize::from(q.domain);
        let (id, lat_ns) = if q.kind.answered() {
            let (id, displaced) = self.socks[d].pending.issue(index);
            if let Some(old) = displaced {
                self.settle(old as usize, LOST);
            }
            self.outstanding += 1;
            self.socks[d].open += 1;
            (id, OPEN)
        } else {
            (index as u16, NO_ANSWER)
        };
        let sock = &mut self.socks[d];
        gen::encode(&q, id, sock.tx.buffer());
        sock.tx.commit(self.target);
        let late_ns = u32::try_from(now_ns - due_ns).unwrap_or(u32::MAX);
        self.recs.push(Rec { query: q, id, due_ns, late_ns, lat_ns });
        if self.socks[d].tx.is_full() {
            self.flush_sock(d);
        }
    }

    fn flush(&mut self) {
        for d in 0..self.socks.len() {
            if !self.socks[d].tx.is_empty() {
                self.flush_sock(d);
            }
        }
    }

    fn flush_sock(&mut self, d: usize) {
        let t0 = self.tracer.now_ns();
        let sock = &mut self.socks[d];
        // A datagram the kernel refuses is never answered, so it shows as
        // lost; `sent` counts only what left for the daemon.
        self.sent += mmsg::send_batch(&sock.udp, &mut sock.tx).sent;
        if self.sampled_round() {
            let t1 = self.tracer.now_ns();
            self.tracer.record("gen.sendmmsg", self.round_span, t0, t1);
        }
    }

    /// Closes query `index` as answered in `lat_ns` or [`LOST`], if it is
    /// still open.
    fn settle(&mut self, index: usize, lat_ns: u32) {
        let rec = &mut self.recs[index];
        if rec.lat_ns == OPEN {
            rec.lat_ns = lat_ns;
            self.outstanding -= 1;
            self.socks[usize::from(rec.query.domain)].open -= 1;
        }
    }

    /// Reads and judges the waiting answers on every socket that has
    /// queries open (`all`: on every socket); returns whether any came.
    fn drain(&mut self, origin: Instant, all: bool) -> bool {
        let mut got = false;
        for d in 0..self.socks.len() {
            while all || self.socks[d].open > 0 {
                let t0 = self.tracer.now_ns();
                let sock = &mut self.socks[d];
                let n = match mmsg::recv_batch(&sock.udp, &mut sock.rx) {
                    Ok(n) if n > 0 => n,
                    _ => break, // WouldBlock: this socket is empty
                };
                let now = ns(origin.elapsed());
                if self.sampled_round() {
                    let t1 = self.tracer.now_ns();
                    self.tracer.record("gen.recvmmsg", self.round_span, t0, t1);
                }
                got = true;
                self.replies += n as u64;
                for i in 0..n {
                    self.judge(d, i, now);
                }
            }
        }
        got
    }

    fn judge(&mut self, d: usize, i: usize, now_ns: u64) {
        let Sock { rx, pending, .. } = &mut self.socks[d];
        let (resp, _) = rx.datagram(i);
        let owner = (resp.len() >= 2)
            .then(|| u16::from_be_bytes([resp[0], resp[1]]))
            .and_then(|id| pending.complete(id).map(|owner| (id, owner)));
        let Some((id, index)) = owner else {
            self.invalid += 1;
            if self.first_invalid.is_empty() {
                self.first_invalid = "answer to no outstanding query".into();
            }
            return;
        };
        let index = index as usize;
        let rec = self.recs[index];
        if rec.lat_ns != OPEN {
            return; // a late answer to a query already counted lost
        }
        let lat = match gen::validate(&rec.query, id, resp) {
            Ok(server) => {
                if let Some(s) = server {
                    self.per_server[s] += 1;
                }
                let lat = now_ns.saturating_sub(rec.due_ns);
                if lat < LOSS_NS {
                    self.valid += 1;
                    lat as u32
                } else {
                    LOST
                }
            }
            Err(why) => {
                self.invalid += 1;
                if self.first_invalid.is_empty() {
                    self.first_invalid = why.into();
                }
                LOST
            }
        };
        self.settle(index, lat);
        if self.tracing && (index as u64).is_multiple_of(SAMPLE_QUERIES) && lat < LOST {
            let start = self.step_origin_ns + rec.due_ns;
            self.tracer.record("dns.query", self.step_span, start, start + u64::from(lat));
        }
    }

    /// Marks queries outstanding for [`LOSS_NS`] as lost.
    fn expire(&mut self, now_ns: u64) {
        while let Some(r) = self.recs.get(self.first_open) {
            if r.lat_ns == OPEN && now_ns.saturating_sub(r.due_ns) < LOSS_NS {
                break;
            }
            self.settle(self.first_open, LOST);
            self.first_open += 1;
        }
    }
}

/// Latency, loss, lateness and worker cost over one step: quantiles over
/// every query sent, a lost one missing every limit, and the worker's CPU
/// time and valid answers between the readings taken when the step
/// started and stopped sending.
fn summarize(recs: &[Rec], start: Sample, stop: Sample, wall_s: f64, gen_cpu_ns: u64) -> Step {
    let owed = recs.iter().filter(|r| r.query.kind.answered());
    let lat = stats::sorted(
        owed.clone()
            .map(|r| if r.lat_ns < LOST { f64::from(r.lat_ns) / 1e3 } else { MISS_US })
            .collect(),
    );
    let late = stats::sorted(recs.iter().map(|r| f64::from(r.late_ns) / 1e3).collect());
    let cpu_ns = (stop.worker_cpu_ns - start.worker_cpu_ns) as f64;
    let answers = (stop.valid - start.valid) as f64;
    let span_s = (stop.at_ns - start.at_ns).max(1) as f64 / 1e9;
    Step {
        queries: lat.len() as u64,
        answered: owed.filter(|r| r.lat_ns < LOST).count() as u64,
        p50_us: stats::quantile(&lat, 0.50),
        p90_us: stats::quantile(&lat, 0.90),
        p99_us: stats::quantile(&lat, 0.99),
        p999_us: stats::quantile(&lat, 0.999),
        late_p99_us: stats::quantile(&late, 0.99),
        worker_busy: cpu_ns / 1e9 / span_s,
        cpu_ns_per_answer: cpu_ns / answers.max(1.0),
        answers_per_s: answers / span_s,
        gen_cpu_share: gen_cpu_ns as f64 / 1e9 / wall_s,
    }
}

/// The control socket: periodic `backlogs` writes and their acks.
///
/// Acks carry no sequence number, so at most one write waits for its ack
/// at a time: writes go out every 100 ms and acks return in microseconds,
/// and a write still unacked when the next is due was lost on the way in
/// (the daemon's queue overflowed), which would otherwise pair every later
/// ack with the wrong write.
struct Ctl {
    sock: UdpSocket,
    target: SocketAddr,
    origin: Instant,
    next_ns: u64,
    seq: u64,
    waiting: Option<Instant>,
    ack_us: Vec<f64>,
    writes: u64,
    ok: u64,
    bad: u64,
}

impl Ctl {
    fn new(target: SocketAddr) -> Result<Self, String> {
        let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("ctl bind: {e}"))?;
        sock.set_nonblocking(true).map_err(|e| format!("ctl nonblocking: {e}"))?;
        Ok(Ctl {
            sock,
            target,
            origin: Instant::now(),
            next_ns: 0,
            seq: 0,
            waiting: None,
            ack_us: Vec::new(),
            writes: 0,
            ok: 0,
            bad: 0,
        })
    }

    /// Writes the next backlog snapshot when one is due (each server's
    /// answer tally over the largest tally), then reads the ack if it came.
    fn tick(&mut self, per_server: &[u64; SERVERS]) {
        let now = ns(self.origin.elapsed());
        if now >= self.next_ns {
            self.next_ns = now + CTL_EVERY_NS;
            self.seq += 1;
            let peak = per_server.iter().copied().max().unwrap_or(0).max(1) as f64;
            let csv: Vec<String> =
                per_server.iter().map(|&c| format!("{:.4}", c as f64 / peak)).collect();
            let msg = format!("GDNSCTL1 backlogs {} {}", self.seq, csv.join(","));
            if self.sock.send_to(msg.as_bytes(), self.target).is_ok() {
                self.writes += 1;
                self.waiting = Some(Instant::now());
            }
        }
        let mut buf = [0u8; 256];
        if self.waiting.is_some() {
            if let Ok((n, _)) = self.sock.recv_from(&mut buf) {
                self.ack(&buf[..n]);
            }
        }
    }

    fn ack(&mut self, reply: &[u8]) {
        if let Some(sent) = self.waiting.take() {
            self.ack_us.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        if reply == b"GDNSCTL1 ok" {
            self.ok += 1;
        } else {
            self.bad += 1;
        }
    }

    /// Switches to blocking reads and waits (up to a second) for the ack
    /// still owed, if any.
    fn settle(&mut self) -> Result<(), String> {
        self.sock.set_nonblocking(false).map_err(|e| e.to_string())?;
        self.sock.set_read_timeout(Some(Duration::from_secs(1))).map_err(|e| e.to_string())?;
        let mut buf = [0u8; 256];
        if self.waiting.is_some() {
            match self.sock.recv_from(&mut buf) {
                Ok((n, _)) => self.ack(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(format!("ctl ack: {e}")),
            }
        }
        Ok(())
    }

    /// Asks the daemon for its learned relative weights. A late ack to a
    /// write counted unacked may still arrive first; it is skipped.
    fn weights(&mut self) -> Result<Vec<f64>, String> {
        self.sock.set_read_timeout(Some(PATIENCE)).map_err(|e| e.to_string())?;
        self.sock.send_to(b"GDNSCTL1 weights", self.target).map_err(|e| e.to_string())?;
        let mut buf = [0u8; 512];
        loop {
            let (n, _) = self.sock.recv_from(&mut buf).map_err(|e| format!("weights: {e}"))?;
            let reply = String::from_utf8_lossy(&buf[..n]);
            if reply == "GDNSCTL1 ok" {
                continue;
            }
            let csv = reply
                .strip_prefix("GDNSCTL1 ok ")
                .ok_or_else(|| format!("unexpected weights reply {reply:?}"))?;
            return csv
                .split(',')
                .map(|f| f.trim().parse().map_err(|e| format!("weights: {e}")))
                .collect();
        }
    }
}

/// Per-call costs measured by replaying the 150k step through a fresh
/// shard, plus unit costs of each query kind and of an estimator ingest.
#[derive(Debug, Default)]
pub struct Replay {
    /// Serve time per answer over the replayed stream (ns).
    pub mean_serve_ns: f64,
    /// Share of replayed queries that meet the fast path's preconditions.
    pub fastpath_share: f64,
    pub fast_ns: f64,
    pub slow_ns: f64,
    pub nxdomain_ns: f64,
    pub ingest_ns: f64,
    pub parse_ns: f64,
    pub encode_ns: f64,
}

/// Datagrams per timed chunk: timing single calls would add the clock's
/// own cost to calls that take tens of nanoseconds.
const CHUNK: usize = 4096;

/// Replays `recorded` — bytes, source and time as sent — through a fresh
/// shard built like the daemon's, timing `handle_into` and `Message::parse`
/// per chunk, and feeding the estimator on the daemon's collection cadence.
pub fn replay(spec: &Spec, seed: u64, recorded: &[Rec], tracer: &mut Tracer) -> Replay {
    let span = tracer.open("replay", ROOT);
    let mut shard = spec.shard(seed);
    let (mut arena, mut offsets) = (Vec::new(), Vec::new());
    let mut out = Vec::with_capacity(512);
    let (mut serve_ns, mut parse_ns, mut answers, mut parsed) = (0u64, 0u64, 0u64, 0u64);
    let mut eligible = 0usize;
    let collect_ns = spec.collect.map(ns);
    let (mut next_collect, mut last_counts) = (collect_ns.unwrap_or(u64::MAX), vec![0u64; DOMAINS]);
    let mut responses: Vec<Message> = Vec::new();
    let mut q = Vec::new();
    for chunk in recorded.chunks(CHUNK) {
        arena.clear();
        offsets.clear();
        for r in chunk {
            let start = arena.len();
            gen::encode(&r.query, r.id, &mut q);
            arena.extend_from_slice(&q);
            offsets.push((start, arena.len()));
            eligible += usize::from(gen::fast_path_eligible(&q));
        }
        let s0 = tracer.now_ns();
        let t0 = Instant::now();
        for (r, &(a, b)) in chunk.iter().zip(&offsets) {
            let sent_s = (r.due_ns + u64::from(r.late_ns)) as f64 / 1e9;
            let src = [127, 0, r.query.domain, 1];
            if shard.handle_into(&arena[a..b], src, sent_s, &mut out).is_ok() {
                answers += 1;
            }
        }
        serve_ns += ns(t0.elapsed());
        let s1 = tracer.now_ns();
        tracer.record("replay.handle_into", span, s0, s1);
        let t0 = Instant::now();
        for (r, &(a, b)) in chunk.iter().zip(&offsets) {
            if r.query.kind.answered() {
                parsed += u64::from(Message::parse(&arena[a..b]).is_ok());
            }
        }
        parse_ns += ns(t0.elapsed());
        tracer.record("replay.parse", span, s1, tracer.now_ns());
        if responses.len() < CHUNK {
            if let Ok(m) = Message::parse(&out) {
                responses.push(m);
            }
        }
        if let (Some(every), Some(last)) = (collect_ns, chunk.last()) {
            if last.due_ns >= next_collect {
                let counts = shard.domain_queries().to_vec();
                let delta: Vec<u64> = counts.iter().zip(&last_counts).map(|(c, l)| c - l).collect();
                shard.scheduler_mut().ingest(&delta, every as f64 / 1e9);
                last_counts = counts;
                next_collect += every;
            }
        }
    }
    // Encode: re-serialise the collected responses many times over.
    let s0 = tracer.now_ns();
    let t0 = Instant::now();
    let passes = 64;
    for _ in 0..passes {
        for m in &responses {
            m.write_bytes(&mut out);
            std::hint::black_box(&out);
        }
    }
    let encode_ns = ns(t0.elapsed()) as f64 / (passes * responses.len().max(1)) as f64;
    tracer.record("replay.write_bytes", span, s0, tracer.now_ns());
    let kind_ns = |kind: Kind, tracer: &mut Tracer| serve_cost(spec, seed, kind, span, tracer);
    let fast_ns = kind_ns(Kind::Plain, tracer);
    let slow_ns = kind_ns(Kind::Edns, tracer);
    let nxdomain_ns = kind_ns(Kind::NxDomain, tracer);
    let ingest_ns = ingest_cost(spec, seed, span, tracer);
    tracer.close(span);
    Replay {
        mean_serve_ns: serve_ns as f64 / answers.max(1) as f64,
        fastpath_share: eligible as f64 / recorded.len().max(1) as f64,
        fast_ns,
        slow_ns,
        nxdomain_ns,
        ingest_ns,
        parse_ns: parse_ns as f64 / parsed.max(1) as f64,
        encode_ns,
    }
}

/// Mean `handle_into` time for 65536 queries of one kind from Zipf source
/// domains, on a fresh shard.
fn serve_cost(spec: &Spec, seed: u64, kind: Kind, parent: u32, tracer: &mut Tracer) -> f64 {
    let mut shard = spec.shard(seed);
    let mut draw = Draw::new(seed, 6, Mix::PLAIN);
    let queries: Vec<(Vec<u8>, [u8; 4])> = (0..65_536u32)
        .map(|i| {
            let q = Query { kind, ..draw.next() };
            let mut bytes = Vec::new();
            gen::encode(&q, i as u16, &mut bytes);
            (bytes, [127, 0, q.domain, 1])
        })
        .collect();
    let mut out = Vec::with_capacity(512);
    let s0 = tracer.now_ns();
    let t0 = Instant::now();
    for (i, (bytes, src)) in queries.iter().enumerate() {
        let _ = shard.handle_into(bytes, *src, i as f64 * 1e-5, &mut out);
    }
    let mean = ns(t0.elapsed()) as f64 / queries.len() as f64;
    tracer.record("unit.handle_into", parent, s0, tracer.now_ns());
    mean
}

/// Mean `DnsScheduler::ingest` time (estimator update plus class and TTL
/// table rebuild) on a fresh shard, with Zipf-shaped counts.
fn ingest_cost(spec: &Spec, seed: u64, parent: u32, tracer: &mut Tracer) -> f64 {
    let mut shard = spec.shard(seed);
    let truth = stats::Zipf::new(DOMAINS, 1.0).probs();
    let mut rng = stats::Rng::new(seed, 7);
    let rounds = 16_384;
    let counts: Vec<Vec<u64>> = (0..rounds)
        .map(|_| truth.iter().map(|p| (p * 75_000.0 * (0.9 + 0.2 * rng.unit())) as u64).collect())
        .collect();
    let s0 = tracer.now_ns();
    let t0 = Instant::now();
    for c in &counts {
        shard.scheduler_mut().ingest(c, 0.5);
    }
    let mean = ns(t0.elapsed()) as f64 / rounds as f64;
    tracer.record("unit.ingest", parent, s0, tracer.now_ns());
    mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_cover_every_query_sent_with_lost_ones_as_misses() {
        let rec = |kind, lat_ns, late_ns| Rec {
            query: Query { domain: 0, kind, variant: 0 },
            id: 0,
            due_ns: 0,
            late_ns,
            lat_ns,
        };
        // 98 answered in 1..=98 µs, 2 lost, and one runt, which is owed
        // nothing and so counts neither as answered nor as lost.
        let mut recs: Vec<Rec> = (1..=98).map(|i| rec(Kind::Edns, i * 1000, 10_000)).collect();
        recs.push(rec(Kind::Plain, LOST, 10_000));
        recs.push(rec(Kind::NxDomain, LOST, 10_000));
        recs.push(rec(Kind::Runt, NO_ANSWER, 5_000_000));
        let start = Sample { at_ns: 0, worker_cpu_ns: 1_000, valid: 7 };
        let stop = Sample { at_ns: 2_000_000_000, worker_cpu_ns: 1_000 + 98 * 4_000, valid: 105 };
        let s = summarize(&recs, start, stop, 2.0, 500_000_000);
        assert_eq!((s.queries, s.answered), (100, 98));
        assert_eq!(s.loss_pct(), 2.0);
        assert_eq!(s.p50_us, 50.0);
        assert_eq!(s.p90_us, 90.0);
        assert_eq!(s.p99_us, MISS_US, "the 99th of 100 is a lost query");
        // Lateness covers every datagram sent, the runt's too: one in 101
        // is 5 ms late, which the nearest-rank p99 (the 100th) does not
        // reach.
        assert_eq!(s.late_p99_us, 10.0);
        // CPU per answer and rate are taken between the two readings.
        assert_eq!(s.cpu_ns_per_answer, 4_000.0);
        assert_eq!(s.answers_per_s, 49.0);
        assert!((s.worker_busy - 98.0 * 4_000.0 / 2e9).abs() < 1e-15);
        assert_eq!(s.gen_cpu_share, 0.25);
    }
}
