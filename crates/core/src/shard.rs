//! Domain-sharded execution: parallel worlds synchronized at epoch
//! barriers.
//!
//! One simulated site, decomposed by domain (see
//! [`ShardSpec`](crate::ShardSpec)): shard `s` owns every domain `d` with
//! `d % shards == s` — strided, so the Zipf head spreads evenly — together
//! with those domains' clients, its own name-server cache and DNS state
//! for them, and a private replica of the server farm whose capacity is
//! scaled to the shard's client share. Between barriers each shard runs a
//! completely independent event loop over its own calendar queue; at a
//! barrier every `epoch_s` simulated seconds the shards exchange
//!
//! 1. **backlog views** — each shard's per-server normalized backlogs,
//!    summed over the *other* shards in ascending shard order (a direct
//!    sum, never total-minus-own, so the f64 arithmetic is identical no
//!    matter which shard computes it) and installed as the remote addend
//!    of the next epoch's scheduling decisions; and
//! 2. **signals** — alarm/normal transitions a shard's monitors raised,
//!    broadcast so every shard's DNS tracks overload state site-wide.
//!
//! Determinism: each shard is seeded by a pure function of the master
//! seed and its index, and the exchange is plain data in a fixed order,
//! so the decomposition has exactly one sample path. The `parallel` flag
//! only chooses whether the per-epoch `run_epoch` calls are issued from
//! one thread or from `shards` scoped threads — both drive the identical
//! exchange code between barriers, and `tests/shard_determinism.rs` pins
//! the reports byte-identical across the two modes and across shard
//! orderings.

use geodns_nameserver::CacheStats;
use geodns_server::Signal;
use geodns_simcore::stats::{Cdf, Tally};
use geodns_simcore::{split_mix_64, SimTime};
use geodns_workload::ClientDistribution;

use crate::world::RunMetrics;
use crate::{ShardSpec, SimConfig, SimReport, World};

/// Weyl increment separating per-shard seed streams.
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The raw statistics one shard tears down into (see `World::harvest`);
/// [`merge_harvests`] folds them into the site-wide [`SimReport`].
pub(crate) struct ShardHarvest {
    pub(crate) max_util_samples: Vec<f64>,
    pub(crate) per_server_util: Vec<Tally>,
    pub(crate) page_response: Tally,
    pub(crate) page_responses: Cdf,
    pub(crate) page_response_hot: Tally,
    pub(crate) page_response_normal: Tally,
    pub(crate) sessions: u64,
    pub(crate) dns_queries: u64,
    pub(crate) client_cache_hits: u64,
    pub(crate) hits_completed: u64,
    pub(crate) hits_total: u64,
    pub(crate) hits_direct: u64,
    pub(crate) alarms: u64,
    pub(crate) ns_stats: CacheStats,
    pub(crate) hits_issued_total: u64,
    pub(crate) hits_served_total: u64,
    pub(crate) hits_failed_total: u64,
    pub(crate) hits_in_flight: u64,
    pub(crate) metrics: RunMetrics,
}

/// Derives shard `s`'s sub-configuration: its strided domain slice as an
/// explicit partition, the farm scaled to its client share, the class
/// threshold rescaled so the γ rule classifies against the *global* rate
/// share, and a seed stream of its own.
fn sub_config(
    cfg: &SimConfig,
    counts: &[usize],
    total_clients: usize,
    s: usize,
    shards: usize,
) -> Result<SimConfig, String> {
    let mut sub_counts = vec![0usize; counts.len()];
    for d in (s..counts.len()).step_by(shards) {
        sub_counts[d] = counts[d];
    }
    let shard_clients: usize = sub_counts.iter().sum();
    if shard_clients == 0 {
        return Err(format!(
            "shard {s} of {shards} owns no clients (its domains are all empty); \
             use fewer shards"
        ));
    }
    let share = shard_clients as f64 / total_clients as f64;

    let mut sub = cfg.clone();
    sub.shard = ShardSpec::default();
    sub.workload.n_clients = shard_clients;
    sub.workload.distribution = ClientDistribution::Explicit(sub_counts);
    // The farm replica serves `share` of the site's clients at `share` of
    // its capacity, so per-server offered load matches the whole site's.
    sub.total_capacity = cfg.total_capacity * share;
    // γ classifies domain rate shares of the *site* total; the shard's
    // local total is `share` of that, so the threshold scales inversely.
    // The clamp below 1.0 only binds when the shard's whole rate share is
    // under γ — every domain it owns is then globally normal, and the
    // clamped rule can misclassify one only if it holds essentially the
    // entire shard (a ≥ (1 − ε) local share), which the strided
    // assignment avoids for any non-degenerate partition.
    sub.class_threshold = Some((cfg.gamma() / share).min(1.0 - f64::EPSILON));
    sub.seed = split_mix_64(cfg.seed ^ (s as u64).wrapping_mul(SHARD_SEED_STRIDE));
    Ok(sub)
}

/// Computes shard `receiver`'s remote backlog view into `remote`: the
/// per-server sum of every *other* shard's exported view, accumulated in
/// ascending shard order so the result is bitwise independent of who
/// computes it.
fn merge_remote(receiver: usize, views: &[Vec<f64>], remote: &mut Vec<f64>) {
    let n_servers = views.first().map_or(0, Vec::len);
    remote.clear();
    remote.resize(n_servers, 0.0);
    for (sender, view) in views.iter().enumerate() {
        if sender == receiver {
            continue;
        }
        for (acc, b) in remote.iter_mut().zip(view) {
            *acc += b;
        }
    }
}

/// One epoch barrier: export all views and staged signals, then give each
/// shard the others' summed backlogs and their signals (senders visited in
/// ascending order, so delivery order is deterministic).
fn exchange(
    worlds: &mut [World],
    views: &mut [Vec<f64>],
    staged: &mut [Vec<(u32, Signal)>],
    remote: &mut Vec<f64>,
) {
    for (w, view) in worlds.iter().zip(views.iter_mut()) {
        w.export_backlogs(view);
    }
    for (w, outbox) in worlds.iter_mut().zip(staged.iter_mut()) {
        w.drain_signal_outbox(outbox);
    }
    for (receiver, world) in worlds.iter_mut().enumerate() {
        merge_remote(receiver, views, remote);
        world.set_remote_backlogs(remote);
        for (sender, signals) in staged.iter().enumerate() {
            if sender == receiver {
                continue;
            }
            for &(server, signal) in signals {
                world.apply_remote_signal(server, signal);
            }
        }
    }
    for outbox in staged.iter_mut() {
        outbox.clear();
    }
}

/// Runs one sharded simulation to completion.
///
/// # Errors
///
/// Returns the first configuration problem found, or a message naming a
/// shard left without clients by the domain partition.
pub(crate) fn run_sharded(cfg: &SimConfig) -> Result<(SimReport, RunMetrics), String> {
    cfg.validate()?;
    let shards = cfg.shard.shards;
    debug_assert!(shards > 1, "single-shard configs take the classic path");

    // Realize the *global* workload once; its per-domain client counts are
    // what the shards slice, so shard populations tile the site exactly.
    let workload = cfg.workload.build()?;
    let counts = workload.partition().counts().to_vec();
    let total_clients: usize = counts.iter().sum();

    let mut worlds: Vec<World> = (0..shards)
        .map(|s| World::new(&sub_config(cfg, &counts, total_clients, s, shards)?))
        .collect::<Result<_, _>>()?;
    for w in &mut worlds {
        w.enable_signal_collection();
        w.start();
    }

    let mut views: Vec<Vec<f64>> = vec![Vec::new(); shards];
    let mut staged: Vec<Vec<(u32, Signal)>> = vec![Vec::new(); shards];
    let mut remote: Vec<f64> = Vec::new();

    // Lockstep epochs: advance every shard to the barrier instant, then
    // exchange. `parallel` only moves the `run_epoch` calls onto scoped
    // threads — shards share no state inside an epoch, and the exchange
    // between barriers is the same single-threaded code either way, so
    // both modes follow one sample path.
    let mut epoch: u64 = 0;
    while worlds.iter().any(|w| !w.drained()) {
        epoch += 1;
        let until = SimTime::from_secs(cfg.shard.epoch_s * epoch as f64);
        if cfg.shard.parallel {
            std::thread::scope(|scope| {
                for w in worlds.iter_mut() {
                    scope.spawn(move || w.run_epoch(until));
                }
            });
        } else {
            for w in worlds.iter_mut() {
                w.run_epoch(until);
            }
        }
        exchange(&mut worlds, &mut views, &mut staged, &mut remote);
    }

    let harvests: Vec<ShardHarvest> = worlds.into_iter().map(World::harvest).collect();
    merge_harvests(cfg, harvests)
}

/// Folds the per-shard statistics into the site-wide report, visiting
/// shards in ascending order so every floating-point fold is
/// deterministic. Counters add; tallies and CDFs merge; the
/// max-utilization series concatenates (each sample is one shard's view of
/// its worst replica at a check instant) and re-sorts ascending, exactly
/// as the single-world `finalize` sorts its own.
fn merge_harvests(
    cfg: &SimConfig,
    harvests: Vec<ShardHarvest>,
) -> Result<(SimReport, RunMetrics), String> {
    let plan = cfg.servers.plan(cfg.total_capacity)?;
    let n_servers = plan.num_servers();

    let mut max_util_samples: Vec<f64> = Vec::new();
    let mut per_server_util = vec![Tally::new(); n_servers];
    let mut page_response = Tally::new();
    let mut page_responses = Cdf::new();
    let mut page_response_hot = Tally::new();
    let mut page_response_normal = Tally::new();
    let mut ns_stats = CacheStats::default();
    let mut sessions = 0u64;
    let mut dns_queries = 0u64;
    let mut client_cache_hits = 0u64;
    let mut hits_completed = 0u64;
    let mut hits_total = 0u64;
    let mut hits_direct = 0u64;
    let mut alarms = 0u64;
    let mut hits_issued_total = 0u64;
    let mut hits_served_total = 0u64;
    let mut hits_failed_total = 0u64;
    let mut hits_in_flight = 0u64;
    let mut metrics: Vec<RunMetrics> = Vec::with_capacity(harvests.len());

    for h in &harvests {
        max_util_samples.extend_from_slice(&h.max_util_samples);
        for (acc, t) in per_server_util.iter_mut().zip(&h.per_server_util) {
            acc.merge(t);
        }
        page_response.merge(&h.page_response);
        page_responses.merge(&h.page_responses);
        page_response_hot.merge(&h.page_response_hot);
        page_response_normal.merge(&h.page_response_normal);
        ns_stats.hits += h.ns_stats.hits;
        ns_stats.misses += h.ns_stats.misses;
        sessions += h.sessions;
        dns_queries += h.dns_queries;
        client_cache_hits += h.client_cache_hits;
        hits_completed += h.hits_completed;
        hits_total += h.hits_total;
        hits_direct += h.hits_direct;
        alarms += h.alarms;
        hits_issued_total += h.hits_issued_total;
        hits_served_total += h.hits_served_total;
        hits_failed_total += h.hits_failed_total;
        hits_in_flight += h.hits_in_flight;
        metrics.push(h.metrics);
    }
    max_util_samples.sort_unstable_by(|a, b| a.total_cmp(b));

    let span = cfg.duration_s;
    let report = SimReport {
        algorithm: cfg.algorithm.name(),
        seed: cfg.seed,
        heterogeneity_pct: plan.max_difference() * 100.0,
        measured_span_s: span,
        max_util_samples,
        per_server_mean_util: per_server_util.iter().map(Tally::mean).collect(),
        page_response_mean_s: page_response.mean(),
        page_response_p95_s: page_responses.quantile(0.95).unwrap_or(0.0),
        sessions,
        dns_queries,
        address_request_rate: dns_queries as f64 / span,
        dns_control_fraction: if hits_total > 0 {
            hits_direct as f64 / hits_total as f64
        } else {
            0.0
        },
        hits_completed,
        alarms,
        ns_miss_fraction: ns_stats.miss_fraction(),
        page_response_hot_mean_s: page_response_hot.mean(),
        page_response_normal_mean_s: page_response_normal.mean(),
        client_cache_hits,
        hits_failed: 0,
        rebinds: 0,
        per_server_availability: vec![1.0; n_servers],
        time_to_rebalance_mean_s: 0.0,
        hits_issued_total,
        hits_served_total,
        hits_failed_total,
        hits_in_flight,
        timeline: None,
        obs: None,
        latency: None,
    };
    Ok((report, RunMetrics::merged(&metrics)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use geodns_server::HeterogeneityLevel;

    fn sharded(shards: usize, parallel: bool, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::quick(Algorithm::drr2_ttl_s_k(), HeterogeneityLevel::H20);
        cfg.duration_s = 300.0;
        cfg.warmup_s = 60.0;
        cfg.seed = seed;
        cfg.shard.shards = shards;
        cfg.shard.parallel = parallel;
        cfg
    }

    #[test]
    fn sub_configs_tile_the_population() {
        let cfg = sharded(4, false, 1);
        let counts = cfg.workload.build().unwrap().partition().counts().to_vec();
        let total: usize = counts.iter().sum();
        let subs: Vec<SimConfig> =
            (0..4).map(|s| sub_config(&cfg, &counts, total, s, 4).unwrap()).collect();
        let clients: usize = subs.iter().map(|c| c.workload.n_clients).sum();
        assert_eq!(clients, total);
        let capacity: f64 = subs.iter().map(|c| c.total_capacity).sum();
        assert!((capacity - cfg.total_capacity).abs() < 1e-9);
        // Strided ownership: shard 1 owns exactly the d % 4 == 1 domains.
        if let ClientDistribution::Explicit(sub_counts) = &subs[1].workload.distribution {
            for (d, &c) in sub_counts.iter().enumerate() {
                assert_eq!(c, if d % 4 == 1 { counts[d] } else { 0 }, "domain {d}");
            }
        } else {
            panic!("sub-config must use an explicit partition");
        }
        // Seeds differ per shard and from the master.
        assert_ne!(subs[0].seed, subs[1].seed);
        assert!(subs.iter().all(|s| s.seed != cfg.seed));
    }

    #[test]
    fn remote_view_is_a_direct_sum_over_other_shards() {
        let views = vec![vec![1.0, 2.0], vec![4.0, 8.0], vec![16.0, 32.0]];
        let mut remote = Vec::new();
        merge_remote(1, &views, &mut remote);
        assert_eq!(remote, vec![17.0, 34.0]);
        merge_remote(0, &views, &mut remote);
        assert_eq!(remote, vec![20.0, 40.0]);
    }

    #[test]
    fn sharded_run_produces_a_coherent_report() {
        let (r, m) = run_sharded(&sharded(4, false, 3)).unwrap();
        assert_eq!(m.clients, 500);
        assert!(r.hits_completed > 1000);
        assert!(!r.max_util_samples.is_empty());
        assert!(r.max_util_samples.windows(2).all(|w| w[0] <= w[1]), "sorted ascending");
        assert!(r.mean_util() > 0.0);
        assert!(r.dns_control_fraction > 0.0 && r.dns_control_fraction < 0.5);
        assert_eq!(r.per_server_availability, vec![1.0; 7]);
        assert_eq!(
            r.hits_issued_total,
            r.hits_served_total + r.hits_failed_total + r.hits_in_flight,
            "hit conservation holds across the merge"
        );
    }

    #[test]
    fn parallel_and_sequential_shards_are_byte_identical() {
        let (seq, ms) = run_sharded(&sharded(3, false, 7)).unwrap();
        let (par, mp) = run_sharded(&sharded(3, true, 7)).unwrap();
        assert_eq!(serde_json::to_string(&seq).unwrap(), serde_json::to_string(&par).unwrap());
        assert_eq!(ms, mp);
    }

    #[test]
    fn run_simulation_dispatches_on_shard_count() {
        let cfg = sharded(2, true, 11);
        let direct = run_sharded(&cfg).unwrap().0;
        let dispatched = crate::run_simulation(&cfg).unwrap();
        assert_eq!(direct, dispatched);
    }
}
