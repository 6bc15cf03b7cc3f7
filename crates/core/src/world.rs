//! The simulation world: clients, servers, name servers, DNS, glued to the
//! event engine.

use geodns_nameserver::{MinTtlBehavior, NsCache, NsLookup};
use geodns_server::{AlarmMonitor, CapacityPlan, FailureProcess, Hit, Signal, WebServer};
use geodns_simcore::dist::{Distribution, Uniform};
use geodns_simcore::stats::{Cdf, Tally};
use geodns_simcore::{split_mix_64, Engine, RngStreams, SimTime, StreamRng};
use geodns_workload::{LatencyModel, Trace, Workload};
use rand::Rng;

use crate::clients::ClientColumns;
use crate::obs::{MuxProbe, Probe, QueueEvent};
use crate::report::LatencySummary;
use crate::service::ServiceSampler;
use crate::{
    ClientCacheModel, DnsScheduler, FailoverModel, HiddenLoadEstimator, SimConfig, SimReport,
    Timeline,
};

/// The event vocabulary of the model.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A client begins a new session (address resolution + first page).
    SessionStart { client: u32 },
    /// A client issues its next page burst.
    IssuePage { client: u32 },
    /// The hit in service at a server completes. `epoch` names the server
    /// incarnation the completion was scheduled under: a crash bumps the
    /// server's epoch, so completions scheduled before it are recognized
    /// as stale and dropped (the hit was drained by the crash).
    Departure { server: u32, epoch: u32 },
    /// The periodic utilization check on every server (paper: every 8 s).
    UtilSample,
    /// The DNS collects per-domain counters from the servers.
    Collect,
    /// An alarm/normal signal reaches the DNS after the network delay.
    SignalArrive { server: u32, signal: Signal },
    /// End of the warm-up transient: statistics start.
    WarmupEnd,
    /// End of the measured span: the run stops.
    Horizon,
    /// A server crashes (fault injection only).
    ServerCrash { server: u32 },
    /// A crashed server completes repair (fault injection only).
    ServerRecover { server: u32 },
    /// A client re-resolves and retries a failed page after its backoff
    /// ([`FailoverModel::RetryAfterBackoff`] only).
    RetryPage { client: u32 },
}

impl Ev {
    /// The event's static name, for the dispatch probe point.
    fn kind(self) -> &'static str {
        match self {
            Ev::SessionStart { .. } => "SessionStart",
            Ev::IssuePage { .. } => "IssuePage",
            Ev::Departure { .. } => "Departure",
            Ev::UtilSample => "UtilSample",
            Ev::Collect => "Collect",
            Ev::SignalArrive { .. } => "SignalArrive",
            Ev::WarmupEnd => "WarmupEnd",
            Ev::Horizon => "Horizon",
            Ev::ServerCrash { .. } => "ServerCrash",
            Ev::ServerRecover { .. } => "ServerRecover",
            Ev::RetryPage { .. } => "RetryPage",
        }
    }
}

/// Domain-separation constants XORed into the master seed to derive the
/// response CDFs' reservoir seeds (ASCII `"page"` / `"perc"`).
const PAGE_CDF: u64 = 0x7061_6765;
const PERC_CDF: u64 = 0x7065_7263;

/// Where the world's sessions come from.
enum SessionSource {
    /// Drawn from the workload's session model: staggered starts, then
    /// pages, hits and thinks from the `pages`, `hits` and `think` streams.
    Generator,
    /// Read from a frozen trace ([`run_trace`](crate::run_trace)): client
    /// slot `i` replays `sessions[i]` from its `start_s`, and retires when
    /// that session ends.
    Trace(Trace),
}

/// The scalar knobs the world consults while running, copied out of the
/// [`SimConfig`] so construction can borrow the config instead of cloning
/// its workload tables.
#[derive(Debug, Clone, Copy)]
struct RunParams {
    seed: u64,
    algorithm: crate::Algorithm,
    client_cache: ClientCacheModel,
    failover: FailoverModel,
    util_interval_s: f64,
    feedback_delay_s: f64,
    duration_s: f64,
    warmup_s: f64,
}

/// One fully wired simulation run.
///
/// Build it from a validated [`SimConfig`] and call [`run`](World::run);
/// most users go through [`run_simulation`](crate::run_simulation), or
/// [`run_trace`](crate::run_trace) to replay a frozen trace.
pub struct World {
    params: RunParams,
    workload: Workload,
    plan: CapacityPlan,
    engine: Engine<Ev>,
    source: SessionSource,
    servers: Vec<WebServer>,
    alarms: Vec<AlarmMonitor>,
    ns: NsCache,
    dns: DnsScheduler,
    // Dense struct-of-arrays session state — see `clients.rs`. At 1M
    // clients these columns hold 31 MiB, less than the event queue's
    // ~36 MiB. Hit completions, most of all events, never enter that
    // queue: each server's next completion waits in the engine timer
    // slot numbered by the server. What the queue holds is mostly far
    // pushes (a client's next page or session), each of which writes its
    // node and one bucket head; a bucket's nodes are read once, when the
    // drain cursor sorts it (DESIGN §4, EXPERIMENTS.md X19).
    clients: ClientColumns,
    rng_think: StreamRng,
    rng_pages: StreamRng,
    rng_hits: StreamRng,
    rng_service: StreamRng,
    service_dists: Vec<ServiceSampler>,
    // --- reusable scratch buffers: the steady-state event loop must not
    // allocate, so the per-decision backlog snapshot and the estimator's
    // collection counts live on the world (see `tests/alloc_free.rs`) ---
    scratch_backlogs: Vec<f64>,
    scratch_counts: Vec<u64>,
    scratch_dropped: Vec<Hit>,
    // --- shard protocol (`shard.rs`): the other shards' summed backlog
    // view from the last epoch barrier (empty in a single-world run, so
    // `fill_backlogs` stays a plain copy), and the outbox of signals this
    // shard raised since the last barrier (collected only when
    // `collect_signals` is set, so the classic path never allocates) ---
    remote_backlogs: Vec<f64>,
    collect_signals: bool,
    signal_outbox: Vec<(u32, Signal)>,
    // --- observability: recorders attached per `SimConfig::obs`. The
    // default (no recorders) makes every hook a pair of `None` checks and
    // keeps the run byte-identical — recorders observe, never perturb. ---
    probe: MuxProbe,
    // --- statistics (collected only after warm-up) ---
    measuring: bool,
    measured_start: SimTime,
    timeline: Option<Timeline>,
    max_util_samples: Vec<f64>,
    per_server_util: Vec<Tally>,
    page_response: Tally,
    // Exact retained-sample CDF: the response stream is bursty and highly
    // autocorrelated, which biases constant-memory quantile estimators
    // (P²'s marker heights lag the stream by whole congestion episodes),
    // so the report's p95 comes from the exact order statistic.
    page_responses: Cdf,
    page_response_hot: Tally,
    page_response_normal: Tally,
    // --- geographic latency (`latency` is `None` unless enabled; the
    // dedicated "latency" RNG stream is drawn exactly once, at
    // construction, and only when enabled — a disabled run stays
    // bit-identical to one predating the proximity extension) ---
    latency: Option<LatencyModel>,
    perceived: Tally,
    perceived_cdf: Cdf,
    perceived_window: Tally,
    rtt_assigned: Tally,
    client_cache_hits: u64,
    sessions: u64,
    dns_queries_measured: u64,
    hits_completed_measured: u64,
    hits_total: u64,
    hits_direct: u64,
    alarms_measured: u64,
    // --- fault injection (`failures` is `None` unless enabled; the RNG
    // stream exists either way but is never drawn from when disabled, so a
    // disabled run stays bit-identical to one without this extension) ---
    rng_failure: StreamRng,
    failures: Option<Vec<FailureProcess>>,
    down_since: Vec<Option<SimTime>>,
    downtime_measured: Vec<f64>,
    recovery_pending: Vec<Option<SimTime>>,
    rebalance: Tally,
    hits_failed_measured: u64,
    rebinds_measured: u64,
    hits_issued_total: u64,
    hits_served_total: u64,
    hits_failed_total: u64,
}

impl World {
    /// Wires up the model.
    ///
    /// # Errors
    ///
    /// Returns the first configuration problem found.
    pub fn new(cfg: &SimConfig) -> Result<Self, String> {
        Self::with_source(cfg, SessionSource::Generator)
    }

    /// Wires up the model with `trace` as its session source: one client
    /// slot per trace session, in trace order.
    pub(crate) fn replaying(cfg: &SimConfig, trace: Trace) -> Result<Self, String> {
        Self::with_source(cfg, SessionSource::Trace(trace))
    }

    fn with_source(cfg: &SimConfig, source: SessionSource) -> Result<Self, String> {
        cfg.validate()?;
        let workload = cfg.workload.build()?;
        let plan = cfg.servers.plan(cfg.total_capacity)?;
        let streams = RngStreams::new(cfg.seed);

        let n_servers = plan.num_servers();
        let n_domains = workload.num_domains();

        let servers: Vec<WebServer> = (0..n_servers)
            .map(|i| WebServer::new(i, plan.absolute(i), n_domains, SimTime::ZERO))
            .collect::<Result<_, _>>()?;
        let service_dists: Vec<ServiceSampler> =
            (0..n_servers).map(|i| cfg.service.sampler(plan.absolute(i))).collect();
        let alarms: Vec<AlarmMonitor> = (0..n_servers)
            .map(|_| AlarmMonitor::new(cfg.alarm_threshold, cfg.alarm_hysteresis))
            .collect::<Result<_, _>>()?;

        let ns = if cfg.ns_noncoop_fraction >= 1.0 {
            NsCache::new(n_domains, cfg.ns_behavior)
        } else {
            // Draw which domains sit behind a non-cooperative NS from a
            // dedicated stream so the mix is seed-stable.
            let mut rng = streams.stream("ns-coop");
            let behaviors = (0..n_domains)
                .map(|_| {
                    if rng.gen::<f64>() < cfg.ns_noncoop_fraction {
                        cfg.ns_behavior
                    } else {
                        MinTtlBehavior::Cooperative
                    }
                })
                .collect();
            NsCache::with_behaviors(behaviors)
        };

        let estimator = HiddenLoadEstimator::new(cfg.estimator, workload.nominal_rates());
        let dns = DnsScheduler::new(
            cfg.algorithm,
            &plan,
            estimator,
            cfg.gamma(),
            cfg.ttl_const_s,
            cfg.normalize_ttl,
            streams.stream("dns-policy"),
        );

        // Hot/normal split of domains by the γ rule on nominal rates, for
        // the per-class response metrics.
        let total_rate: f64 = workload.nominal_rates().iter().sum();
        let gamma = cfg.gamma();
        let hot_domain: Vec<bool> =
            workload.nominal_rates().iter().map(|r| r / total_rate > gamma).collect();

        // Realize the geography once, from its own named stream. The
        // closure runs only when enabled, so latency-free configurations
        // never touch the stream and stay byte-identical.
        let latency = cfg.latency.enabled.then(|| {
            let mut rng = streams.stream("latency");
            LatencyModel::generate(&cfg.latency, n_domains, n_servers, &mut rng)
        });
        let mut dns = dns;
        if let Some(model) = &latency {
            // Prime the scheduler's RTT tables from the geography,
            // GeoIP-style: a real geo-DNS knows approximate client-to-site
            // distances a priori and refines them online. DNS decisions
            // are far too rare (one per domain per TTL window) for a cold
            // estimator to ever map 20 domains × 7 servers from completion
            // samples alone. RNG-free, and a no-op for proximity-blind
            // policies.
            for domain in 0..n_domains {
                for server in 0..n_servers {
                    dns.observe_rtt(domain, server, model.rtt_s(domain, server));
                }
            }
        }

        let domain_of = |c: usize| workload.domain_of_client(c).index() as u32;
        let clients = match &source {
            SessionSource::Generator => {
                ClientColumns::new((0..workload.num_clients()).map(domain_of), &hot_domain)
            }
            SessionSource::Trace(trace) => {
                if let Some(s) = trace.sessions.iter().find(|s| s.client >= workload.num_clients())
                {
                    return Err(format!(
                        "trace client {} outside the workload's {} clients",
                        s.client,
                        workload.num_clients()
                    ));
                }
                ClientColumns::new(trace.sessions.iter().map(|s| domain_of(s.client)), &hot_domain)
            }
        };
        let n_clients = clients.len();

        Ok(World {
            engine: Engine::with_capacity_and_kind(n_clients * 2 + 64, cfg.queue)
                .with_timer_slots(n_servers),
            source,
            rng_think: streams.stream("think"),
            rng_pages: streams.stream("pages"),
            rng_hits: streams.stream("hits"),
            rng_service: streams.stream("service"),
            service_dists,
            measuring: false,
            measured_start: SimTime::ZERO,
            timeline: cfg.record_timeline.then(Timeline::new),
            max_util_samples: Vec::new(),
            per_server_util: vec![Tally::new(); n_servers],
            page_response: Tally::new(),
            // Response CDFs honor `cdf_sample_cap` (0 = retain everything,
            // the classic exact behavior). Each gets its own reservoir
            // seed derived from the master seed so capping never touches
            // the model's named RNG streams.
            page_responses: Cdf::with_cap(cfg.cdf_sample_cap, split_mix_64(cfg.seed ^ PAGE_CDF)),
            page_response_hot: Tally::new(),
            page_response_normal: Tally::new(),
            latency,
            perceived: Tally::new(),
            perceived_cdf: Cdf::with_cap(cfg.cdf_sample_cap, split_mix_64(cfg.seed ^ PERC_CDF)),
            perceived_window: Tally::new(),
            rtt_assigned: Tally::new(),
            client_cache_hits: 0,
            sessions: 0,
            dns_queries_measured: 0,
            hits_completed_measured: 0,
            hits_total: 0,
            hits_direct: 0,
            alarms_measured: 0,
            rng_failure: streams.stream("failures"),
            failures: if cfg.failures.enabled {
                Some(
                    (0..n_servers)
                        .map(|_| FailureProcess::new(cfg.failures.spec))
                        .collect::<Result<_, _>>()?,
                )
            } else {
                None
            },
            down_since: vec![None; n_servers],
            downtime_measured: vec![0.0; n_servers],
            recovery_pending: vec![None; n_servers],
            rebalance: Tally::new(),
            hits_failed_measured: 0,
            rebinds_measured: 0,
            hits_issued_total: 0,
            hits_served_total: 0,
            hits_failed_total: 0,
            scratch_backlogs: Vec::with_capacity(n_servers),
            scratch_counts: Vec::with_capacity(n_domains),
            scratch_dropped: Vec::new(),
            remote_backlogs: Vec::new(),
            collect_signals: false,
            signal_outbox: Vec::new(),
            probe: MuxProbe::from_config(&cfg.obs)?,
            params: RunParams {
                seed: cfg.seed,
                algorithm: cfg.algorithm,
                client_cache: cfg.client_cache,
                failover: cfg.failures.failover,
                util_interval_s: cfg.util_interval_s,
                feedback_delay_s: cfg.feedback_delay_s,
                duration_s: cfg.duration_s,
                warmup_s: cfg.warmup_s,
            },
            workload,
            plan,
            servers,
            alarms,
            ns,
            dns,
            clients,
        })
    }

    /// Runs the simulation to its horizon and produces the report.
    pub fn run(self) -> SimReport {
        self.run_metered().0
    }

    /// Like [`run`](World::run), but also returns execution metrics
    /// (events processed, per-client state bytes) for the scale bench.
    pub fn run_metered(mut self) -> (SimReport, RunMetrics) {
        self.schedule_initial_events();
        while let Some((now, ev)) = self.engine.step() {
            self.dispatch(now, ev);
        }
        let metrics = self.metrics();
        (self.finalize(), metrics)
    }

    /// Handles one event. The single dispatch point shared by the classic
    /// run-to-completion loop and the sharded epoch loop.
    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        self.probe.on_event(now, ev.kind(), self.engine.pending());
        match ev {
            Ev::SessionStart { client } => self.on_session_start(client, now),
            Ev::IssuePage { client } => self.on_issue_page(client, now),
            Ev::Departure { server, epoch } => self.on_departure(server, epoch, now),
            Ev::UtilSample => self.on_util_sample(now),
            Ev::Collect => self.on_collect(now),
            Ev::SignalArrive { server, signal } => self.on_signal(server, signal, now),
            Ev::WarmupEnd => self.on_warmup_end(now),
            Ev::Horizon => {
                self.engine.clear_pending();
            }
            Ev::ServerCrash { server } => self.on_server_crash(server, now),
            Ev::ServerRecover { server } => self.on_server_recover(server, now),
            Ev::RetryPage { client } => self.on_retry_page(client, now),
        }
    }

    /// Execution counters of the run so far.
    fn metrics(&self) -> RunMetrics {
        RunMetrics {
            events: self.engine.events_processed(),
            clients: self.clients.len() as u64,
            client_state_bytes: self.clients.bytes() as u64,
        }
    }

    /// Number of simulated clients.
    #[must_use]
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Heap bytes retained for per-client session state — the dense
    /// struct-of-arrays columns. The scale bench divides this by
    /// [`num_clients`](World::num_clients) for its bytes-per-client gate.
    #[must_use]
    pub fn client_state_bytes(&self) -> usize {
        self.clients.bytes()
    }

    fn schedule_initial_events(&mut self) {
        match &self.source {
            SessionSource::Generator => {
                // Stagger session starts across one think period to avoid a
                // synchronized burst at t = 0.
                let think_mean = self.workload.session().think_mean_s;
                let stagger =
                    Uniform::new(0.0, think_mean.max(1e-9) * 2.0).expect("valid stagger window");
                let mut rng_start = RngStreams::new(self.params.seed).stream("start");
                for c in 0..self.clients.len() {
                    let delay = stagger.sample(&mut rng_start);
                    self.engine.schedule_in(delay, Ev::SessionStart { client: c as u32 });
                }
            }
            SessionSource::Trace(trace) => {
                for (c, session) in trace.sessions.iter().enumerate() {
                    self.engine.schedule_at(
                        SimTime::from_secs(session.start_s),
                        Ev::SessionStart { client: c as u32 },
                    );
                }
            }
        }
        self.engine.schedule_in(self.params.util_interval_s, Ev::UtilSample);
        if let Some(interval) = self.dns.estimator().collect_interval() {
            self.engine.schedule_in(interval, Ev::Collect);
        }
        self.engine.schedule_in(self.params.warmup_s, Ev::WarmupEnd);
        self.engine.schedule_in(self.params.warmup_s + self.params.duration_s, Ev::Horizon);
        if let Some(fps) = &mut self.failures {
            for (s, fp) in fps.iter_mut().enumerate() {
                let up = fp.sample_uptime(&mut self.rng_failure);
                self.engine.schedule_in(up, Ev::ServerCrash { server: s as u32 });
            }
        }
    }

    /// Refreshes the reusable backlog snapshot from the current server
    /// states. Reuses `scratch_backlogs` so the per-decision path performs
    /// no allocation once the buffer reached `n_servers` capacity.
    fn fill_backlogs(&mut self) {
        self.scratch_backlogs.clear();
        self.scratch_backlogs.extend(self.servers.iter().map(WebServer::normalized_backlog));
        // In a sharded run, add the other shards' view from the last epoch
        // barrier so the scheduler judges whole-site queues. Empty (and
        // skipped — keeping the classic path byte-identical) otherwise.
        if !self.remote_backlogs.is_empty() {
            for (own, remote) in self.scratch_backlogs.iter_mut().zip(&self.remote_backlogs) {
                *own += remote;
            }
        }
    }

    /// Resolves the client's domain through the full path (client cache →
    /// domain NS cache → DNS), records the mapping into the client state,
    /// and counts failure-driven rebinds.
    fn resolve_client(&mut self, client: u32, now: SimTime) {
        let domain = self.clients.domain(client);
        let old_server = self.clients.server(client);

        let client_hit = self.clients.cached_lookup(client, now);
        if client_hit.is_some() && self.measuring {
            self.client_cache_hits += 1;
        }
        let (server, direct) = match client_hit {
            Some(server) => (server, false),
            None => {
                let outcome = self.ns.lookup_with_outcome(domain, now);
                self.probe.on_ns_lookup(now, domain, outcome);
                let (server, ns_expiry, direct) = match outcome {
                    NsLookup::Hit { server, expiry } => (server, expiry, false),
                    NsLookup::MissCold | NsLookup::MissExpired => {
                        self.fill_backlogs();
                        let (server, ttl) = self.dns.resolve_probed(
                            domain,
                            now,
                            &self.scratch_backlogs,
                            &mut self.probe,
                        );
                        let effective = self.ns.insert(domain, server, ttl, now);
                        if self.measuring {
                            self.dns_queries_measured += 1;
                        }
                        (server, now + effective, true)
                    }
                };
                if !matches!(self.params.client_cache, ClientCacheModel::Off) {
                    let expiry = self
                        .params
                        .client_cache
                        .expiry(now.as_secs(), ns_expiry.as_secs())
                        .map(SimTime::from_secs);
                    match expiry {
                        Some(e) => self.clients.set_cached(client, server as u32, e),
                        None => self.clients.clear_cached(client),
                    }
                }
                (server, direct)
            }
        };
        if self.measuring
            && server != old_server
            && self.failures.as_ref().is_some_and(|f| !f[old_server].alive())
        {
            // The resolution moved this client off a dead server — a
            // failure-driven rebind, whichever cache layer supplied it.
            self.rebinds_measured += 1;
        }
        self.clients.set_server(client, server as u32);
        self.clients.set_direct(client, direct);
    }

    fn on_session_start(&mut self, client: u32, now: SimTime) {
        self.resolve_client(client, now);
        let pages = match &self.source {
            SessionSource::Generator => self.workload.session().sample_pages(&mut self.rng_pages),
            SessionSource::Trace(trace) => trace.sessions[client as usize].hits.len() as u64,
        };
        self.clients.set_pages_left(client, pages);
        if self.measuring {
            self.sessions += 1;
        }
        self.on_issue_page(client, now);
    }

    fn on_issue_page(&mut self, client: u32, now: SimTime) {
        let hits = match &self.source {
            SessionSource::Generator => self.workload.session().sample_hits(&mut self.rng_hits),
            SessionSource::Trace(trace) => {
                let session = &trace.sessions[client as usize];
                session.hits[session.hits.len() - self.clients.pages_left(client) as usize]
            }
        };
        self.clients.dec_pages_left(client);
        self.clients.set_page_issued_at(client, now);
        let (server, domain, direct) =
            (self.clients.server(client), self.clients.domain(client), self.clients.direct(client));
        self.hits_issued_total += hits;
        if self.measuring {
            self.hits_total += hits;
            if direct {
                self.hits_direct += hits;
            }
        }
        if self.failures.as_ref().is_some_and(|f| !f[server].alive()) {
            // The mapped server is down: the whole page fails and the
            // client's failover model decides what happens next.
            self.hits_failed_total += hits;
            if self.measuring {
                self.hits_failed_measured += hits;
            }
            self.handle_failed_page(client, now);
            return;
        }
        if let Some(recovered_at) = self.recovery_pending[server].take() {
            if self.measuring {
                self.rebalance.record(now.since(recovered_at));
            }
        }
        let epoch = self.servers[server].epoch();
        for i in 0..hits {
            let hit = Hit { client: client as usize, domain, last_of_page: i + 1 == hits };
            if self.servers[server].arrive(hit, now) {
                let svc = self.service_dists[server].sample(&mut self.rng_service);
                self.engine.arm_in(server, svc, Ev::Departure { server: server as u32, epoch });
            }
        }
        self.probe.on_queue_change(
            now,
            server,
            self.servers[server].queue_len(),
            QueueEvent::Arrive { hits },
        );
    }

    fn on_departure(&mut self, server: u32, epoch: u32, now: SimTime) {
        let s = server as usize;
        if epoch != self.servers[s].epoch() {
            // The server crashed after this completion was scheduled; the
            // hit was drained and already accounted as failed.
            return;
        }
        let (hit, more) = self.servers[s].depart(now);
        if more {
            let svc = self.service_dists[s].sample(&mut self.rng_service);
            self.engine.arm_in(s, svc, Ev::Departure { server, epoch });
        }
        self.probe.on_queue_change(now, s, self.servers[s].queue_len(), QueueEvent::Depart);
        self.hits_served_total += 1;
        if self.measuring {
            self.hits_completed_measured += 1;
        }
        if hit.last_of_page {
            let client = hit.client as u32;
            let response = now.since(self.clients.page_issued_at(client));
            // Client-perceived latency = queueing response + the base
            // network round-trip of the (domain, server) pair. The policy
            // is fed the network leg alone — the proximity signal — and
            // unconditionally (warm-up included, like the alarm monitors):
            // for proximity-blind policies the call is a no-op, and it
            // draws no randomness, so old runs stay byte-identical.
            let rtt = self.latency.as_ref().map_or(0.0, |m| m.rtt_s(hit.domain, s));
            let perceived = response + rtt;
            self.dns.observe_rtt(hit.domain, s, rtt);
            if self.measuring {
                self.page_response.record(response);
                self.page_responses.record(response);
                if self.clients.hot(client) {
                    self.page_response_hot.record(response);
                } else {
                    self.page_response_normal.record(response);
                }
                if self.latency.is_some() {
                    self.perceived.record(perceived);
                    self.perceived_cdf.record(perceived);
                    self.perceived_window.record(perceived);
                    self.rtt_assigned.record(rtt);
                }
            }
            self.schedule_after_page(client, now);
        }
    }

    /// Schedules what follows a client's completed or abandoned page, one
    /// think time later: its next page, or else its next session. A trace
    /// slot thinks the recorded time and, once its session ends, retires.
    fn schedule_after_page(&mut self, client: u32, now: SimTime) {
        let pages_left = self.clients.pages_left(client);
        match &self.source {
            SessionSource::Generator => {
                let multiplier =
                    self.workload.client_rate_multiplier_at(client as usize, now.as_secs());
                let think =
                    self.workload.session().sample_think_scaled(&mut self.rng_think, multiplier);
                let next = if pages_left > 0 {
                    Ev::IssuePage { client }
                } else {
                    Ev::SessionStart { client }
                };
                self.engine.schedule_in(think, next);
            }
            SessionSource::Trace(trace) if pages_left > 0 => {
                let session = &trace.sessions[client as usize];
                let think = session.thinks[session.hits.len() - pages_left as usize - 1];
                self.engine.schedule_in(think, Ev::IssuePage { client });
            }
            SessionSource::Trace(_) => {}
        }
    }

    fn on_util_sample(&mut self, now: SimTime) {
        let mut max_util: f64 = 0.0;
        let mut row = self
            .timeline
            .as_ref()
            .filter(|_| self.measuring)
            .map(|_| Vec::with_capacity(self.servers.len()));
        for s in 0..self.servers.len() {
            let u = self.servers[s].sample_utilization(now);
            self.probe.on_util_sample(now, s, u);
            max_util = max_util.max(u);
            if self.measuring {
                self.per_server_util[s].record(u);
            }
            if let Some(r) = row.as_mut() {
                r.push(u);
            }
            if let Some(signal) = self.alarms[s].observe(u) {
                self.engine.schedule_in(
                    self.params.feedback_delay_s,
                    Ev::SignalArrive { server: s as u32, signal },
                );
            }
        }
        if self.measuring {
            self.max_util_samples.push(max_util);
            if let (Some(timeline), Some(row)) = (self.timeline.as_mut(), row) {
                timeline.push(now.since(self.measured_start), row);
                if self.latency.is_some() {
                    let mean = if self.perceived_window.count() > 0 {
                        self.perceived_window.mean()
                    } else {
                        0.0
                    };
                    timeline.push_perceived(mean);
                    self.perceived_window = Tally::new();
                }
            }
        }
        self.engine.schedule_in(self.params.util_interval_s, Ev::UtilSample);
    }

    fn on_collect(&mut self, now: SimTime) {
        let Some(interval) = self.dns.estimator().collect_interval() else {
            return;
        };
        let n_domains = self.workload.num_domains();
        self.scratch_counts.clear();
        self.scratch_counts.resize(n_domains, 0);
        for server in &mut self.servers {
            for (total, c) in self.scratch_counts.iter_mut().zip(server.take_domain_counts()) {
                *total += c;
            }
        }
        self.probe.on_collect(now, &self.scratch_counts);
        self.dns.ingest(&self.scratch_counts, interval);
        self.engine.schedule_in(interval, Ev::Collect);
    }

    fn on_signal(&mut self, server: u32, signal: Signal, now: SimTime) {
        if self.measuring && signal == Signal::Alarm {
            self.alarms_measured += 1;
        }
        self.probe.on_signal(now, server as usize, signal);
        self.dns.signal(server as usize, signal);
        if self.collect_signals {
            self.signal_outbox.push((server, signal));
        }
    }

    fn on_server_crash(&mut self, server: u32, now: SimTime) {
        let s = server as usize;
        let repair = {
            let fps = self.failures.as_mut().expect("crash event without fault injection");
            fps[s].crash();
            fps[s].sample_downtime(&mut self.rng_failure)
        };
        self.engine.schedule_in(repair, Ev::ServerRecover { server });
        // The liveness signal rides the same delayed channel as alarms.
        self.engine.schedule_in(
            self.params.feedback_delay_s,
            Ev::SignalArrive { server, signal: Signal::Down },
        );
        self.down_since[s] = Some(now);
        self.recovery_pending[s] = None;
        self.probe.on_liveness(now, s, false);
        if self.measuring {
            let t = now.since(self.measured_start);
            if let Some(timeline) = self.timeline.as_mut() {
                timeline.push_failure_event(t, server, false);
            }
        }
        // Everything queued at the server is lost. A page whose closing
        // hit was still queued never completes, so its client fails over.
        // The drain reuses a scratch buffer so the crash path, like the
        // rest of the steady-state loop, settles to zero allocations.
        self.scratch_dropped.clear();
        self.servers[s].crash_drain_into(now, &mut self.scratch_dropped);
        let dropped = self.scratch_dropped.len();
        self.probe.on_queue_change(now, s, 0, QueueEvent::Crash { dropped });
        self.hits_failed_total += dropped as u64;
        if self.measuring {
            self.hits_failed_measured += dropped as u64;
        }
        for i in 0..dropped {
            let hit = self.scratch_dropped[i];
            if hit.last_of_page {
                self.handle_failed_page(hit.client as u32, now);
            }
        }
    }

    fn on_server_recover(&mut self, server: u32, now: SimTime) {
        let s = server as usize;
        let next_up = {
            let fps = self.failures.as_mut().expect("recovery event without fault injection");
            fps[s].recover();
            fps[s].sample_uptime(&mut self.rng_failure)
        };
        self.engine.schedule_in(next_up, Ev::ServerCrash { server });
        self.engine.schedule_in(
            self.params.feedback_delay_s,
            Ev::SignalArrive { server, signal: Signal::Up },
        );
        if let Some(down_at) = self.down_since[s].take() {
            if self.measuring {
                let from =
                    if down_at < self.measured_start { self.measured_start } else { down_at };
                self.downtime_measured[s] += now.since(from);
            }
        }
        self.recovery_pending[s] = Some(now);
        self.probe.on_liveness(now, s, true);
        if self.measuring {
            let t = now.since(self.measured_start);
            if let Some(timeline) = self.timeline.as_mut() {
                timeline.push_failure_event(t, server, true);
            }
        }
    }

    /// A client's page failed (issued at a dead server, or dropped from a
    /// crashing server's queue). The failover model decides what happens.
    fn handle_failed_page(&mut self, client: u32, now: SimTime) {
        // Tell the policy the page never completed so an RTT-aware scheme
        // backs off the dead server instead of waiting out a full RTO.
        // No-op (and RNG-free) for the classic policies.
        self.dns.observe_timeout(self.clients.domain(client), self.clients.server(client));
        match self.params.failover {
            FailoverModel::PinUntilTtl => {
                // Paper-faithful: the page is abandoned, the binding stays
                // until its TTL runs out, and the client moves on after a
                // normal think period.
                self.schedule_after_page(client, now);
            }
            FailoverModel::RetryAfterBackoff { backoff_s } => {
                // The client notices the failure, drops its own binding,
                // and retries the same page after the backoff with a fresh
                // resolution (the NS cache may still pin it to the dead
                // server until the TTL expires).
                self.clients.inc_pages_left(client);
                self.clients.clear_cached(client);
                self.engine.schedule_in(backoff_s, Ev::RetryPage { client });
            }
        }
    }

    fn on_retry_page(&mut self, client: u32, now: SimTime) {
        self.resolve_client(client, now);
        self.on_issue_page(client, now);
    }

    fn on_warmup_end(&mut self, now: SimTime) {
        self.measuring = true;
        self.measured_start = now;
        self.ns.reset_stats();
        for server in &mut self.servers {
            server.reset_lifetime(now);
        }
        // A server that crashed during warm-up and is still down gets no
        // `Down` event inside the measured span, so without this a trace
        // consumer reconstructing liveness from `failure_events` would
        // believe it was up until its (possibly never-recorded) repair —
        // disagreeing with `per_server_availability`. Emit the initial
        // liveness state at t = 0 of the measured span.
        if let Some(timeline) = self.timeline.as_mut() {
            for (s, down) in self.down_since.iter().enumerate() {
                if down.is_some() {
                    timeline.push_failure_event(0.0, s as u32, false);
                }
            }
        }
        self.probe.on_measurement_start(now, &self.down_since);
    }

    fn finalize(mut self) -> SimReport {
        self.max_util_samples.sort_unstable_by(|a, b| a.total_cmp(b));
        let span = self.params.duration_s;
        // Close out servers still down at the horizon.
        let horizon = self.engine.now();
        let mut downtime = self.downtime_measured.clone();
        if self.measuring {
            for (s, down_at) in self.down_since.iter().enumerate() {
                if let Some(t) = down_at {
                    let from = if *t < self.measured_start { self.measured_start } else { *t };
                    downtime[s] += horizon.since(from);
                }
            }
        }
        let per_server_availability: Vec<f64> =
            downtime.iter().map(|d| (1.0 - d / span).clamp(0.0, 1.0)).collect();
        let hits_in_flight: u64 = self.servers.iter().map(|s| s.queue_len() as u64).sum();
        let obs = self.probe.finish();
        let latency = self.latency.as_ref().map(|_| LatencySummary {
            pages: self.perceived_cdf.count() as u64,
            perceived_mean_s: self.perceived.mean(),
            perceived_p50_s: self.perceived_cdf.quantile(0.50).unwrap_or(0.0),
            perceived_p95_s: self.perceived_cdf.quantile(0.95).unwrap_or(0.0),
            perceived_p99_s: self.perceived_cdf.quantile(0.99).unwrap_or(0.0),
            rtt_mean_s: self.rtt_assigned.mean(),
        });
        SimReport {
            algorithm: self.params.algorithm.name(),
            seed: self.params.seed,
            heterogeneity_pct: self.plan.max_difference() * 100.0,
            measured_span_s: span,
            max_util_samples: self.max_util_samples,
            per_server_mean_util: self.per_server_util.iter().map(Tally::mean).collect(),
            page_response_mean_s: self.page_response.mean(),
            page_response_p95_s: self.page_responses.quantile(0.95).unwrap_or(0.0),
            sessions: self.sessions,
            dns_queries: self.dns_queries_measured,
            address_request_rate: self.dns_queries_measured as f64 / span,
            dns_control_fraction: if self.hits_total > 0 {
                self.hits_direct as f64 / self.hits_total as f64
            } else {
                0.0
            },
            hits_completed: self.hits_completed_measured,
            alarms: self.alarms_measured,
            ns_miss_fraction: self.ns.stats().miss_fraction(),
            page_response_hot_mean_s: self.page_response_hot.mean(),
            page_response_normal_mean_s: self.page_response_normal.mean(),
            client_cache_hits: self.client_cache_hits,
            hits_failed: self.hits_failed_measured,
            rebinds: self.rebinds_measured,
            per_server_availability,
            time_to_rebalance_mean_s: self.rebalance.mean(),
            hits_issued_total: self.hits_issued_total,
            hits_served_total: self.hits_served_total,
            hits_failed_total: self.hits_failed_total,
            hits_in_flight,
            timeline: self.timeline,
            obs,
            latency,
        }
    }
}

// --- the shard protocol: the crate-private hooks `shard.rs` drives to run
// this world as one shard of a domain-decomposed site (see `ShardSpec`) ---
impl World {
    /// Schedules the initial event population without running. The epoch
    /// loop then advances the world barrier by barrier.
    pub(crate) fn start(&mut self) {
        self.schedule_initial_events();
    }

    /// Processes every pending event with timestamp strictly before
    /// `until`, then stops — events at or past the barrier instant run in
    /// the next epoch, after the cross-shard exchange.
    pub(crate) fn run_epoch(&mut self, until: SimTime) {
        while let Some((now, ev)) = self.engine.step_before(until) {
            self.dispatch(now, ev);
        }
    }

    /// Whether the event queue is empty (the horizon has passed).
    pub(crate) fn drained(&self) -> bool {
        self.engine.next_event_time().is_none()
    }

    /// Turns on the signal outbox so alarm/normal/liveness signals this
    /// shard's DNS receives are also staged for broadcast at the barrier.
    pub(crate) fn enable_signal_collection(&mut self) {
        self.collect_signals = true;
    }

    /// Writes this shard's per-server normalized backlogs into `out`.
    pub(crate) fn export_backlogs(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.servers.iter().map(WebServer::normalized_backlog));
    }

    /// Installs the other shards' summed backlog view for the next epoch.
    pub(crate) fn set_remote_backlogs(&mut self, remote: &[f64]) {
        self.remote_backlogs.clear();
        self.remote_backlogs.extend_from_slice(remote);
    }

    /// Moves the staged signals out (in the order they fired).
    pub(crate) fn drain_signal_outbox(&mut self, out: &mut Vec<(u32, Signal)>) {
        out.append(&mut self.signal_outbox);
    }

    /// Delivers a signal another shard raised to this shard's DNS.
    pub(crate) fn apply_remote_signal(&mut self, server: u32, signal: Signal) {
        self.dns.signal(server as usize, signal);
    }

    /// Tears the finished shard down into its raw statistics, for the
    /// cross-shard merge (`shard.rs`). The single-world path goes through
    /// [`finalize`](World::finalize) instead.
    pub(crate) fn harvest(self) -> crate::shard::ShardHarvest {
        let metrics = self.metrics();
        let hits_in_flight: u64 = self.servers.iter().map(|s| s.queue_len() as u64).sum();
        crate::shard::ShardHarvest {
            max_util_samples: self.max_util_samples,
            per_server_util: self.per_server_util,
            page_response: self.page_response,
            page_responses: self.page_responses,
            page_response_hot: self.page_response_hot,
            page_response_normal: self.page_response_normal,
            sessions: self.sessions,
            dns_queries: self.dns_queries_measured,
            client_cache_hits: self.client_cache_hits,
            hits_completed: self.hits_completed_measured,
            hits_total: self.hits_total,
            hits_direct: self.hits_direct,
            alarms: self.alarms_measured,
            ns_stats: self.ns.stats(),
            hits_issued_total: self.hits_issued_total,
            hits_served_total: self.hits_served_total,
            hits_failed_total: self.hits_failed_total,
            hits_in_flight,
            metrics,
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("algorithm", &self.params.algorithm.name())
            .field("servers", &self.servers.len())
            .field("clients", &self.clients.len())
            .field("now", &self.engine.now())
            .finish()
    }
}

/// Execution metrics of one run, for throughput and memory accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMetrics {
    /// Events the engine processed over the whole run (warm-up included).
    pub events: u64,
    /// Number of simulated clients.
    pub clients: u64,
    /// Heap bytes retained for per-client session state.
    pub client_state_bytes: u64,
}

impl RunMetrics {
    /// Per-client session-state footprint in bytes.
    #[must_use]
    pub fn bytes_per_client(&self) -> f64 {
        if self.clients == 0 {
            0.0
        } else {
            self.client_state_bytes as f64 / self.clients as f64
        }
    }

    /// Sums counters across shards (client counts and bytes add; so do
    /// events).
    #[must_use]
    pub fn merged(metrics: &[RunMetrics]) -> RunMetrics {
        let mut total = RunMetrics { events: 0, clients: 0, client_state_bytes: 0 };
        for m in metrics {
            total.events += m.events;
            total.clients += m.clients;
            total.client_state_bytes += m.client_state_bytes;
        }
        total
    }
}

/// Runs one simulation described by `config` and returns its report.
///
/// # Errors
///
/// Returns the first configuration problem found.
///
/// # Examples
///
/// ```
/// use geodns_core::{run_simulation, Algorithm, SimConfig};
/// use geodns_server::HeterogeneityLevel;
///
/// let mut cfg = SimConfig::quick(Algorithm::rr(), HeterogeneityLevel::H20);
/// cfg.duration_s = 120.0;
/// cfg.warmup_s = 30.0;
/// let report = run_simulation(&cfg).unwrap();
/// assert!(report.hits_completed > 0);
/// assert!(report.mean_util() > 0.0);
/// ```
pub fn run_simulation(config: &SimConfig) -> Result<SimReport, String> {
    if config.shard.shards > 1 {
        return Ok(crate::shard::run_sharded(config)?.0);
    }
    Ok(World::new(config)?.run())
}

/// Runs one simulation and also returns its execution metrics (events
/// processed, per-client state bytes) — the scale bench's entry point.
///
/// # Errors
///
/// Returns the first configuration problem found.
pub fn run_simulation_metered(config: &SimConfig) -> Result<(SimReport, RunMetrics), String> {
    if config.shard.shards > 1 {
        return crate::shard::run_sharded(config);
    }
    Ok(World::new(config)?.run_metered())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use geodns_server::HeterogeneityLevel;

    fn short(algorithm: Algorithm, level: HeterogeneityLevel, seed: u64) -> SimReport {
        let mut cfg = SimConfig::paper_default(algorithm, level);
        cfg.duration_s = 600.0;
        cfg.warmup_s = 120.0;
        cfg.seed = seed;
        run_simulation(&cfg).unwrap()
    }

    #[test]
    fn utilizations_are_physical() {
        let r = short(Algorithm::rr(), HeterogeneityLevel::H20, 1);
        assert!(!r.max_util_samples.is_empty());
        for &u in &r.max_util_samples {
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
        for &u in &r.per_server_mean_util {
            assert!((0.0..=1.0).contains(&u));
        }
    }

    #[test]
    fn offered_load_is_about_two_thirds() {
        let r = short(Algorithm::prr_ttl_k(), HeterogeneityLevel::H20, 2);
        // Closed-loop think-time model: mean utilization ≈ 2/3 by design,
        // a bit lower because response time adds to the cycle.
        let mean = r.mean_util();
        assert!((0.45..0.80).contains(&mean), "mean utilization {mean}");
    }

    #[test]
    fn dns_controls_a_small_fraction() {
        let r = short(Algorithm::rr(), HeterogeneityLevel::H20, 3);
        assert!(r.dns_control_fraction < 0.25, "DNS controls {}", r.dns_control_fraction);
        assert!(r.dns_control_fraction > 0.0);
        assert!(r.ns_miss_fraction > 0.0);
    }

    #[test]
    fn sessions_and_hits_flow() {
        let r = short(Algorithm::drr2_ttl_s_k(), HeterogeneityLevel::H35, 4);
        assert!(r.sessions > 0);
        assert!(r.hits_completed > 1000);
        assert!(r.page_response_mean_s > 0.0);
        assert!(r.page_response_p95_s >= r.page_response_mean_s * 0.5);
    }

    #[test]
    fn same_seed_same_report() {
        let a = short(Algorithm::prr2_ttl(2), HeterogeneityLevel::H50, 7);
        let b = short(Algorithm::prr2_ttl(2), HeterogeneityLevel::H50, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = short(Algorithm::rr(), HeterogeneityLevel::H20, 1);
        let b = short(Algorithm::rr(), HeterogeneityLevel::H20, 2);
        assert_ne!(a.max_util_samples, b.max_util_samples);
    }

    #[test]
    fn measured_estimator_runs() {
        let mut cfg = SimConfig::paper_default(Algorithm::prr_ttl_k(), HeterogeneityLevel::H20);
        cfg.duration_s = 600.0;
        cfg.warmup_s = 120.0;
        cfg.estimator = crate::EstimatorKind::measured_default();
        let r = run_simulation(&cfg).unwrap();
        assert!(r.hits_completed > 0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = SimConfig::paper_default(Algorithm::rr(), HeterogeneityLevel::H0);
        cfg.duration_s = -1.0;
        assert!(run_simulation(&cfg).is_err());
    }

    #[test]
    fn latency_model_populates_the_perceived_summary() {
        let mut cfg = SimConfig::paper_default(Algorithm::rtt_band(400), HeterogeneityLevel::H20);
        cfg.duration_s = 600.0;
        cfg.warmup_s = 120.0;
        cfg.seed = 5;
        cfg.latency.enabled = true;
        let r = run_simulation(&cfg).unwrap();
        let lat = r.latency.expect("enabled model must yield a summary");
        assert!(lat.pages > 0);
        assert!(lat.perceived_p50_s > 0.0);
        assert!(lat.perceived_p50_s <= lat.perceived_p95_s);
        assert!(lat.perceived_p95_s <= lat.perceived_p99_s);
        // Perceived latency includes the network leg on top of queueing.
        assert!(lat.perceived_mean_s > r.page_response_mean_s);
        assert!(lat.rtt_mean_s > 0.0);
    }

    #[test]
    fn disabled_latency_leaves_the_report_unchanged() {
        let r = short(Algorithm::rr(), HeterogeneityLevel::H20, 1);
        assert!(r.latency.is_none());
        let json = serde_json::to_string(&r).unwrap();
        assert!(!json.contains("\"latency\""), "disabled model must not grow a key");
    }

    #[test]
    fn timeline_carries_perceived_latency_when_enabled() {
        let mut cfg = SimConfig::paper_default(Algorithm::rtt_band(400), HeterogeneityLevel::H20);
        cfg.duration_s = 600.0;
        cfg.warmup_s = 120.0;
        cfg.seed = 9;
        cfg.latency.enabled = true;
        cfg.record_timeline = true;
        let r = run_simulation(&cfg).unwrap();
        let timeline = r.timeline.expect("timeline requested");
        assert_eq!(timeline.perceived_latency_s.len(), timeline.len());
        assert!(timeline.perceived_latency_s.iter().any(|&m| m > 0.0));
    }
}
