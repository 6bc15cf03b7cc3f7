//! Micro-benchmarks for the random-variate samplers — the workload model
//! draws millions of these per run. Prints best-of-N ns per draw;
//! `GEODNS_QUICK=1` / `--quick` shortens the runs for CI smoke.

use std::hint::black_box;

use geodns_bench::{best_ns_per_op, print_ns_per_op, quick_mode};
use geodns_simcore::dist::{Discrete, DiscreteUniform, Distribution, Exponential, Geometric, Zipf};
use geodns_simcore::RngStreams;

/// Best-of-`repeats` ns per draw of `dist` from a stream seeded `seed`.
fn per_draw<T>(
    name: &str,
    seed: u64,
    dist: &impl Distribution<T>,
    draws: u64,
    repeats: usize,
) -> (String, f64) {
    let mut rng = RngStreams::new(seed).stream(name);
    let ns = best_ns_per_op(draws, repeats, |_| {
        black_box(dist.sample(&mut rng));
    });
    (name.to_string(), ns)
}

fn main() {
    let (draws, repeats) = if quick_mode() { (200_000, 3) } else { (2_000_000, 5) };
    let weights: Vec<f64> = (1..=1000).map(|i| 1.0 / f64::from(i)).collect();
    let rows = vec![
        per_draw("exponential", 1, &Exponential::with_mean(15.0), draws, repeats),
        per_draw("discrete_uniform", 2, &DiscreteUniform::new(5, 15).unwrap(), draws, repeats),
        per_draw("geometric", 3, &Geometric::with_mean(20.0).unwrap(), draws, repeats),
        per_draw("zipf_alias_k100", 4, &Zipf::new(100, 1.0).unwrap(), draws, repeats),
        per_draw("alias_k1000", 5, &Discrete::from_weights(&weights).unwrap(), draws, repeats),
        (
            "alias_table_build_k1000".to_string(),
            best_ns_per_op(draws / 1000, repeats, |_| {
                black_box(Discrete::from_weights(&weights).unwrap());
            }),
        ),
    ];
    print_ns_per_op("random-variate samplers (ns per draw; table build per table)", &rows);
}
