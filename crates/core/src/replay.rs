//! Trace replay: run a frozen request stream through the full system.
//!
//! [`run_trace`] feeds a [`Trace`] (recorded or synthetic) through the
//! same servers/name-server/DNS machinery as the live generator, but with
//! *every* random workload quantity predetermined. Two algorithms replayed
//! on the same trace therefore see the **identical** request stream —
//! stronger than common random numbers, and the natural way to drive the
//! model from measured logs.
//!
//! Semantics: sessions start at their trace times (open loop across
//! sessions); within a session, page `i+1` is issued one recorded think
//! time after page `i`'s last hit completes (closed loop within the
//! session, so queueing still feeds back into pacing).

use geodns_nameserver::NsCache;
use geodns_server::{AlarmMonitor, Hit, Signal, WebServer};
use geodns_simcore::stats::Tally;
use geodns_simcore::{Engine, RngStreams, SimTime};
use geodns_workload::Trace;

use crate::service::ServiceSampler;
use crate::{DnsScheduler, HiddenLoadEstimator, SimConfig, SimReport};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    SessionStart { session: u32 },
    IssuePage { session: u32 },
    Departure { server: u32 },
    UtilSample,
    Collect,
    SignalArrive { server: u32, signal: Signal },
    WarmupEnd,
    Horizon,
}

#[derive(Debug, Clone, Copy)]
struct SessionState {
    domain: u32,
    server: u32,
    next_page: u32,
    page_issued_at: SimTime,
}

/// Replays `trace` under `config`'s algorithm and site, returning the
/// usual report. The measured span is `[config.warmup_s, config.warmup_s +
/// config.duration_s)`; the trace should cover it.
///
/// `config.workload` is used only for the domain map (client → domain) and
/// the estimator's nominal weights; all timing randomness comes from the
/// trace. Session metrics that depend on the live generator
/// (`dns_control_fraction`'s hit attribution) are computed the same way.
///
/// # Errors
///
/// Returns the first configuration or trace problem found.
pub fn run_trace(config: &SimConfig, trace: &Trace) -> Result<SimReport, String> {
    config.validate()?;
    trace.validate()?;
    let workload = config.workload.build()?;
    let plan = config.servers.plan(config.total_capacity)?;
    let streams = RngStreams::new(config.seed);

    let n_servers = plan.num_servers();
    let n_domains = workload.num_domains();
    for s in &trace.sessions {
        if s.client >= workload.num_clients() {
            return Err(format!(
                "trace client {} outside the workload's {} clients",
                s.client,
                workload.num_clients()
            ));
        }
    }

    let mut servers: Vec<WebServer> = (0..n_servers)
        .map(|i| WebServer::new(i, plan.absolute(i), n_domains, SimTime::ZERO))
        .collect::<Result<_, _>>()?;
    let service: Vec<ServiceSampler> =
        (0..n_servers).map(|i| config.service.sampler(plan.absolute(i))).collect();
    let mut alarms: Vec<AlarmMonitor> = (0..n_servers)
        .map(|_| AlarmMonitor::new(config.alarm_threshold, config.alarm_hysteresis))
        .collect::<Result<_, _>>()?;
    let mut ns = NsCache::new(n_domains, config.ns_behavior);
    let estimator = HiddenLoadEstimator::new(config.estimator, workload.nominal_rates());
    let mut dns = DnsScheduler::new(
        config.algorithm,
        &plan,
        estimator,
        config.gamma(),
        config.ttl_const_s,
        config.normalize_ttl,
        streams.stream("dns-policy"),
    );
    let mut rng_service = streams.stream("service");

    let mut states: Vec<SessionState> = trace
        .sessions
        .iter()
        .map(|s| SessionState {
            domain: workload.domain_of_client(s.client).index() as u32,
            server: 0,
            next_page: 0,
            page_issued_at: SimTime::ZERO,
        })
        .collect();
    // Map an in-flight page's "last hit" back to its session: tag hits
    // with the session index in `Hit::client`.
    let mut engine: Engine<Ev> =
        Engine::with_capacity(trace.len().min(1 << 16)).with_timer_slots(n_servers);

    for (i, s) in trace.sessions.iter().enumerate() {
        engine.schedule_at(SimTime::from_secs(s.start_s), Ev::SessionStart { session: i as u32 });
    }
    engine.schedule_in(config.util_interval_s, Ev::UtilSample);
    if let Some(interval) = dns.estimator().collect_interval() {
        engine.schedule_in(interval, Ev::Collect);
    }
    engine.schedule_in(config.warmup_s, Ev::WarmupEnd);
    engine.schedule_in(config.warmup_s + config.duration_s, Ev::Horizon);

    let mut measuring = false;
    let mut max_util_samples: Vec<f64> = Vec::new();
    let mut per_server_util = vec![Tally::new(); n_servers];
    let mut page_response = Tally::new();
    let mut sessions_measured = 0u64;
    let mut dns_queries = 0u64;
    let mut hits_completed = 0u64;
    let mut alarms_measured = 0u64;

    while let Some((now, ev)) = engine.step() {
        match ev {
            Ev::SessionStart { session } => {
                let domain = states[session as usize].domain as usize;
                let server = match ns.lookup(domain, now) {
                    Some(server) => server,
                    None => {
                        let backlogs: Vec<f64> =
                            servers.iter().map(WebServer::normalized_backlog).collect();
                        let (server, ttl) = dns.resolve(domain, now, &backlogs);
                        ns.insert(domain, server, ttl, now);
                        if measuring {
                            dns_queries += 1;
                        }
                        server
                    }
                };
                states[session as usize].server = server as u32;
                if measuring {
                    sessions_measured += 1;
                }
                issue_page(
                    session,
                    now,
                    trace,
                    &mut states,
                    &mut servers,
                    &service,
                    &mut rng_service,
                    &mut engine,
                );
            }
            Ev::IssuePage { session } => {
                issue_page(
                    session,
                    now,
                    trace,
                    &mut states,
                    &mut servers,
                    &service,
                    &mut rng_service,
                    &mut engine,
                );
            }
            Ev::Departure { server } => {
                let s = server as usize;
                let (hit, more) = servers[s].depart(now);
                if more {
                    let svc = service[s].sample(&mut rng_service);
                    engine.arm_in(s, svc, Ev::Departure { server });
                }
                if measuring {
                    hits_completed += 1;
                }
                if hit.last_of_page {
                    let session = hit.client as u32; // session index, see above
                    let st = states[hit.client];
                    if measuring {
                        page_response.record(now.since(st.page_issued_at));
                    }
                    let done_pages = st.next_page as usize;
                    let spec = &trace.sessions[hit.client];
                    if done_pages < spec.hits.len() {
                        let think = spec.thinks[done_pages - 1];
                        engine.schedule_in(think, Ev::IssuePage { session });
                    }
                }
            }
            Ev::UtilSample => {
                let mut max_util: f64 = 0.0;
                for s in 0..n_servers {
                    let u = servers[s].sample_utilization(now);
                    max_util = max_util.max(u);
                    if measuring {
                        per_server_util[s].record(u);
                    }
                    if let Some(signal) = alarms[s].observe(u) {
                        engine.schedule_in(
                            config.feedback_delay_s,
                            Ev::SignalArrive { server: s as u32, signal },
                        );
                    }
                }
                if measuring {
                    max_util_samples.push(max_util);
                }
                engine.schedule_in(config.util_interval_s, Ev::UtilSample);
            }
            Ev::Collect => {
                if let Some(interval) = dns.estimator().collect_interval() {
                    let mut counts = vec![0u64; n_domains];
                    for server in &mut servers {
                        for (total, c) in counts.iter_mut().zip(server.take_domain_counts()) {
                            *total += c;
                        }
                    }
                    dns.ingest(&counts, interval);
                    engine.schedule_in(interval, Ev::Collect);
                }
            }
            Ev::SignalArrive { server, signal } => {
                if measuring && signal == Signal::Alarm {
                    alarms_measured += 1;
                }
                dns.signal(server as usize, signal);
            }
            Ev::WarmupEnd => {
                measuring = true;
                ns.reset_stats();
            }
            Ev::Horizon => engine.clear_pending(),
        }
    }

    max_util_samples.sort_unstable_by(|a, b| a.total_cmp(b));
    Ok(SimReport {
        algorithm: config.algorithm.name(),
        seed: config.seed,
        heterogeneity_pct: plan.max_difference() * 100.0,
        measured_span_s: config.duration_s,
        max_util_samples,
        per_server_mean_util: per_server_util.iter().map(Tally::mean).collect(),
        page_response_mean_s: page_response.mean(),
        page_response_p95_s: 0.0, // not tracked in replay mode
        sessions: sessions_measured,
        dns_queries,
        address_request_rate: dns_queries as f64 / config.duration_s,
        dns_control_fraction: 0.0, // hit attribution not tracked in replay mode
        hits_completed,
        alarms: alarms_measured,
        ns_miss_fraction: ns.stats().miss_fraction(),
        page_response_hot_mean_s: 0.0,
        page_response_normal_mean_s: 0.0,
        client_cache_hits: 0,
        hits_failed: 0, // fault injection not modeled in replay mode
        rebinds: 0,
        per_server_availability: vec![1.0; n_servers],
        time_to_rebalance_mean_s: 0.0,
        hits_issued_total: 0, // conservation ledger not tracked in replay mode
        hits_served_total: 0,
        hits_failed_total: 0,
        hits_in_flight: 0,
        timeline: None,
        obs: None,     // recorders are not wired into replay mode
        latency: None, // the latency model is not wired into replay mode
    })
}

#[allow(clippy::too_many_arguments)]
fn issue_page(
    session: u32,
    now: SimTime,
    trace: &Trace,
    states: &mut [SessionState],
    servers: &mut [WebServer],
    service: &[ServiceSampler],
    rng_service: &mut geodns_simcore::StreamRng,
    engine: &mut Engine<Ev>,
) {
    let idx = session as usize;
    let spec = &trace.sessions[idx];
    let page = states[idx].next_page as usize;
    debug_assert!(page < spec.hits.len(), "page index in range");
    states[idx].next_page += 1;
    states[idx].page_issued_at = now;
    let server = states[idx].server as usize;
    let hits = spec.hits[page];
    for i in 0..hits {
        let hit = Hit {
            client: idx, // session index: recovered at departure
            domain: states[idx].domain as usize,
            last_of_page: i + 1 == hits,
        };
        if servers[server].arrive(hit, now) {
            let svc = service[server].sample(rng_service);
            engine.arm_in(server, svc, Ev::Departure { server: server as u32 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use geodns_server::HeterogeneityLevel;

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
}
