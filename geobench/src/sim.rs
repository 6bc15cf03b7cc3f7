//! The simulator half of a workload: one configuration run again and again
//! in this process, plus (traced pass) unit costs of each layer's public
//! calls on inputs shaped like the workload's.

use std::time::{Duration, Instant};

use geodns_core::{
    run_simulation_metered, Algorithm, CapacityPlan, DnsScheduler, EstimatorKind,
    HeterogeneityLevel, HiddenLoadEstimator, MinTtlBehavior, ObsSnapshot, RunMetrics, SimConfig,
    World,
};
use geodns_nameserver::NsCache;
use geodns_server::{Hit, WebServer};
use geodns_simcore::{Engine, RngStreams, SimTime};

use crate::stats::{self, ns, Rng, Zipf};
use crate::trace::{Tracer, ROOT};

/// Repetitions per run, whatever the time budget.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 100;

/// The two simulator configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `SimConfig::paper_default(DRR2-TTL/S_K, H35)`: 500 clients, 20
    /// domains, 1800 s warm-up and 18000 s measured.
    Paper,
    /// 1M clients over 10k Zipf domains, H20, capacity matched to the
    /// population, 5 s warm-up and 15 s measured, CDFs capped at 2^20
    /// samples, one shard.
    Internet,
}

impl Scale {
    fn level(self) -> HeterogeneityLevel {
        match self {
            Scale::Paper => HeterogeneityLevel::H35,
            Scale::Internet => HeterogeneityLevel::H20,
        }
    }

    pub fn config(self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::paper_default(Algorithm::drr2_ttl_s_k(), self.level());
        if self == Scale::Internet {
            cfg.workload.n_clients = 1_000_000;
            cfg.workload.n_domains = 10_000;
            cfg.total_capacity = 1_000_000.0;
            cfg.warmup_s = 5.0;
            cfg.duration_s = 15.0;
            cfg.cdf_sample_cap = 1 << 20;
        }
        cfg.seed = seed;
        cfg
    }
}

/// What the repetitions measured and checked.
#[derive(Debug)]
pub struct Run {
    /// `World::new` and `World::run_metered` wall times of the untraced
    /// repetitions.
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    /// `run_metered` wall times with the counters registry on (traced
    /// pass only).
    pub traced_run_s: Vec<f64>,
    /// Digest of the report JSON; every repetition must produce it.
    pub digest: String,
    pub metrics: RunMetrics,
    pub obs: Option<ObsSnapshot>,
    pub failures: Vec<String>,
}

/// Builds and runs `cfg` until `budget` is spent (at least [`MIN_REPS`]
/// times). The traced pass alternates repetitions with the counters
/// registry off and on; the registry only observes, so the reports must
/// still match once its snapshot is set aside.
pub fn run(cfg: &SimConfig, budget: Duration, tracer: &mut Tracer) -> Result<Run, String> {
    let start = Instant::now();
    let mut out = Run {
        setup_s: Vec::new(),
        run_s: Vec::new(),
        traced_run_s: Vec::new(),
        digest: String::new(),
        metrics: RunMetrics { events: 0, clients: 0, client_state_bytes: 0 },
        obs: None,
        failures: Vec::new(),
    };
    for rep in 0..MAX_REPS {
        if rep >= MIN_REPS && start.elapsed() >= budget {
            break;
        }
        let counters = tracer.enabled() && rep % 2 == 1;
        let mut cfg = cfg.clone();
        cfg.obs.counters = counters;
        let span = tracer.open("sim.rep", ROOT);
        let t0 = tracer.now_ns();
        let world = World::new(&cfg)?;
        let t1 = tracer.now_ns();
        let (mut report, metrics) = world.run_metered();
        let t2 = tracer.now_ns();
        tracer.record("sim.world_new", span, t0, t1);
        tracer.record("sim.run_metered", span, t1, t2);
        tracer.close(span);
        let (setup, run) = ((t1 - t0) as f64 / 1e9, (t2 - t1) as f64 / 1e9);
        if counters {
            out.traced_run_s.push(run);
            out.obs = report.obs.take();
        } else {
            out.setup_s.push(setup);
            out.run_s.push(run);
        }
        let ledger = report.hits_served_total + report.hits_failed_total + report.hits_in_flight;
        if report.hits_issued_total != ledger {
            out.failures.push(format!(
                "rep {rep}: hits issued {} != served + failed + in flight {ledger}",
                report.hits_issued_total
            ));
        }
        if metrics.events == 0 || report.hits_completed == 0 {
            out.failures.push(format!("rep {rep}: the run processed no work"));
        }
        let json = serde_json::to_string(&report).map_err(|e| format!("report json: {e}"))?;
        let digest = stats::digest(json.as_bytes());
        if out.digest.is_empty() {
            out.digest = digest;
        } else if digest != out.digest {
            out.failures.push(format!("rep {rep}: report digest {digest} != {}", out.digest));
        }
        out.metrics = metrics;
    }
    Ok(out)
}

/// Unit costs (ns per call) of each simulator layer's public calls, on
/// inputs shaped like the workload's.
#[derive(Debug)]
pub struct Costs {
    /// One `Engine` hold step (pop the next event, schedule one) with the
    /// workload's pending-set size.
    pub hold_ns: f64,
    /// One `WebServer::arrive` plus `depart`.
    pub arrive_depart_ns: f64,
    /// One `NsCache` lookup, with the insert a miss triggers.
    pub lookup_ns: f64,
    /// One `DnsScheduler::resolve` over the workload's domains and farm.
    pub resolve_ns: f64,
}

/// Each unit-cost loop runs in chunks of this many calls until it has
/// made [`MAX_CALLS`] or spent [`LOOP_TIME`], whichever comes first.
const CHUNK: usize = 1 << 16;
const MAX_CALLS: usize = 2_000_000;
const LOOP_TIME: Duration = Duration::from_millis(250);

/// Mean ns per call of `f`, which makes calls `i..i + CHUNK`; recorded as
/// span `name` under `parent`.
fn per_call(name: &'static str, parent: u32, tracer: &mut Tracer, mut f: impl FnMut(usize)) -> f64 {
    let s0 = tracer.now_ns();
    let t0 = Instant::now();
    let mut calls = 0;
    while calls < MAX_CALLS && t0.elapsed() < LOOP_TIME {
        f(calls);
        calls += CHUNK;
    }
    let mean = ns(t0.elapsed()) as f64 / calls as f64;
    tracer.record(name, parent, s0, tracer.now_ns());
    mean
}

pub fn costs(scale: Scale, cfg: &SimConfig, tracer: &mut Tracer) -> Costs {
    let span = tracer.open("unit.sim", ROOT);
    let k = cfg.workload.n_domains;
    let zipf = Zipf::new(k, 1.0);
    let mut rng = Rng::new(cfg.seed, 11);
    // Inputs indexed by call number modulo CHUNK.
    let domains: Vec<usize> = (0..CHUNK).map(|_| zipf.sample(&mut rng)).collect();
    let gaps: Vec<f64> = (0..CHUNK).map(|_| rng.unit() * 16.0).collect();
    let at = |i: usize| SimTime::from_secs(i as f64 * 1e-3);

    // Each client has about one pending event (its next page or session),
    // so the pending set is about the population.
    let pending = cfg.workload.n_clients;
    let mut engine = Engine::<u32>::with_capacity(pending);
    for i in 0..pending {
        engine.schedule_at(SimTime::from_secs(rng.unit() * 16.0), i as u32);
    }
    let hold_ns = per_call("unit.engine_hold", span, tracer, |_| {
        for gap in &gaps {
            let (_, ev) = engine.step().expect("the hold model never empties");
            engine.schedule_in(*gap, ev);
        }
    });
    drop(engine);

    let plan = CapacityPlan::from_level(scale.level(), cfg.total_capacity);
    let mut server =
        WebServer::new(0, plan.absolute(0), k, SimTime::ZERO).expect("positive capacity");
    let arrive_depart_ns = per_call("unit.server_arrive_depart", span, tracer, |start| {
        for (i, &domain) in domains.iter().enumerate() {
            let hit = Hit { client: start + i, domain, last_of_page: i % 8 == 0 };
            server.arrive(hit, at(start + i));
            server.depart(at(start + i));
        }
    });

    let mut ns_cache = NsCache::new(k, MinTtlBehavior::Cooperative);
    let lookup_ns = per_call("unit.ns_lookup", span, tracer, |start| {
        for (i, &d) in domains.iter().enumerate() {
            if ns_cache.lookup(d, at(start + i)).is_none() {
                ns_cache.insert(d, i % 7, 240.0, at(start + i));
            }
        }
    });

    let estimator = HiddenLoadEstimator::new(EstimatorKind::Oracle, &zipf.probs());
    let mut dns = DnsScheduler::new(
        Algorithm::drr2_ttl_s_k(),
        &plan,
        estimator,
        1.0 / k as f64,
        240.0,
        true,
        RngStreams::new(cfg.seed).stream("geobench"),
    );
    let backlogs = vec![0.0; plan.num_servers()];
    let resolve_ns = per_call("unit.dns_resolve", span, tracer, |start| {
        for (i, &d) in domains.iter().enumerate() {
            std::hint::black_box(dns.resolve(d, at(start + i), &backlogs));
        }
    });
    tracer.close(span);
    Costs { hold_ns, arrive_depart_ns, lookup_ns, resolve_ns }
}

/// Wall time of one run on one shard over the same run on two shards.
pub fn shard_speedup(cfg: &SimConfig, tracer: &mut Tracer) -> Result<f64, String> {
    let mut wall = [0.0; 2];
    for (slot, shards) in [1usize, 2].into_iter().enumerate() {
        let mut c = cfg.clone();
        c.shard.shards = shards;
        let s0 = tracer.now_ns();
        let t0 = Instant::now();
        run_simulation_metered(&c)?;
        wall[slot] = t0.elapsed().as_secs_f64();
        let name = if shards == 1 { "sim.shards1" } else { "sim.shards2" };
        tracer.record(name, ROOT, s0, tracer.now_ns());
    }
    Ok(wall[0] / wall[1])
}
