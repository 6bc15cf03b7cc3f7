//! Exact empirical CDF over retained samples, with an optional memory cap.

use serde::{Deserialize, Serialize};

use crate::split_mix_64;

/// An exact empirical cumulative distribution function.
///
/// Unlike [`Histogram`](super::Histogram), this retains every sample, so
/// quantiles and probabilities are exact — use it when the sample count is
/// modest (e.g. the per-interval max-utilization series of a single run:
/// 5 h / 8 s ≈ 2250 points).
///
/// For runs whose sample count is *not* modest (the scale experiments record
/// one perceived-latency sample per page hit — hundreds of millions at 1M
/// clients), construct with [`with_cap`](Cdf::with_cap): samples beyond the
/// cap go through a seeded reservoir (Vitter's Algorithm R), so memory stays
/// bounded at `cap` while quantiles remain unbiased estimates. Below the cap
/// the retained set — and therefore every quantile — is *byte-identical* to
/// the uncapped CDF, which is pinned by test.
///
/// # Examples
///
/// ```
/// use geodns_simcore::stats::Cdf;
///
/// let mut cdf = Cdf::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     cdf.record(x);
/// }
/// assert_eq!(cdf.prob_lt(2.5), 0.5);
/// assert_eq!(cdf.prob_le(2.0), 0.5);
/// assert_eq!(cdf.quantile(0.5), Some(2.0));
///
/// let mut capped = Cdf::with_cap(1000, 42);
/// for x in 0..1_000_000 {
///     capped.record(f64::from(x));
/// }
/// assert_eq!(capped.count(), 1000, "memory bounded");
/// assert_eq!(capped.seen(), 1_000_000, "every sample counted");
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Cdf {
    samples: Vec<f64>,
    #[serde(skip)]
    sorted: std::cell::Cell<bool>,
    /// Retained-sample cap; 0 means unlimited (exact mode).
    #[serde(skip)]
    cap: usize,
    /// Total samples recorded, including those the reservoir dropped.
    #[serde(skip)]
    seen: u64,
    /// splitmix64 state driving reservoir replacement decisions. Dedicated
    /// to this CDF so capping never perturbs the model's named RNG streams.
    #[serde(skip)]
    rng_state: u64,
}

impl Cdf {
    /// Creates an empty CDF that retains every sample exactly.
    #[must_use]
    pub fn new() -> Self {
        Cdf {
            samples: Vec::new(),
            sorted: std::cell::Cell::new(true),
            cap: 0,
            seen: 0,
            rng_state: 0,
        }
    }

    /// Creates an empty CDF that retains at most `cap` samples: exact below
    /// the cap, a seeded uniform reservoir beyond it. `cap = 0` means
    /// unlimited (identical to [`new`](Cdf::new)).
    #[must_use]
    pub fn with_cap(cap: usize, seed: u64) -> Self {
        Cdf {
            samples: Vec::new(),
            sorted: std::cell::Cell::new(true),
            cap,
            seen: 0,
            rng_state: seed,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics on NaN samples, which have no place in an ordering.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "CDF samples must not be NaN");
        self.seen += 1;
        if self.cap == 0 || self.samples.len() < self.cap {
            self.samples.push(x);
            self.sorted.set(false);
        } else {
            // Algorithm R: the t-th sample replaces a random reservoir slot
            // with probability cap/t (modulo bias is < cap/2^64 — nil).
            self.rng_state = self.rng_state.wrapping_add(1);
            let j = split_mix_64(self.rng_state) % self.seen;
            if (j as usize) < self.cap {
                self.samples[j as usize] = x;
                self.sorted.set(false);
            }
        }
    }

    /// Number of *retained* samples (≤ [`seen`](Cdf::seen) when capped).
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Total number of samples recorded, including any the reservoir
    /// replaced. Equals [`count`](Cdf::count) for uncapped CDFs.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained-sample cap (0 = unlimited).
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Retained-sample heap footprint in bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<f64>()
    }

    /// Merges another CDF's retained samples into this one (parallel-shard
    /// friendly). Quantiles of the merged set are order-invariant: samples
    /// are re-sorted on the next query, so merging shards in any order
    /// yields the same multiset. Counts of *seen* samples add. The merged
    /// set is allowed to exceed `cap` — shard merging happens once, at
    /// harvest, where `shards × cap` is the intended bound.
    pub fn merge(&mut self, other: &Cdf) {
        if other.samples.is_empty() && other.seen == 0 {
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.seen += other.seen;
        self.sorted.set(false);
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted.get() {
            self.samples.sort_unstable_by(|a, b| a.total_cmp(b));
            self.sorted.set(true);
        }
    }

    /// `P(X < x)` — the paper's "cumulative frequency" (fraction of
    /// observation instants strictly below `x`). Returns 0 when empty.
    #[must_use]
    pub fn prob_lt(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s < x);
        idx as f64 / self.samples.len() as f64
    }

    /// `P(X <= x)`. Returns 0 when empty.
    #[must_use]
    pub fn prob_le(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// The exact `q`-quantile (smallest sample `s` with `P(X <= s) >= q`),
    /// or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1], got {q}");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(self.samples[idx])
    }

    /// The sample mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The maximum sample, or `None` when empty.
    #[must_use]
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// Evaluates the CDF at each point of `xs`, returning `(x, P(X < x))`
    /// pairs — the series plotted in the paper's Figures 1 and 2.
    #[must_use]
    pub fn curve(&mut self, xs: &[f64]) -> Vec<(f64, f64)> {
        xs.iter().map(|&x| (x, self.prob_lt(x))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_behaviour() {
        let mut c = Cdf::new();
        assert!(c.is_empty());
        assert_eq!(c.prob_lt(1.0), 0.0);
        assert_eq!(c.quantile(0.5), None);
        assert_eq!(c.max(), None);
        assert_eq!(c.mean(), 0.0);
    }

    #[test]
    fn strict_vs_weak_inequality() {
        let mut c = Cdf::new();
        for x in [1.0, 1.0, 2.0, 3.0] {
            c.record(x);
        }
        assert_eq!(c.prob_lt(1.0), 0.0);
        assert_eq!(c.prob_le(1.0), 0.5);
        assert_eq!(c.prob_lt(3.0), 0.75);
        assert_eq!(c.prob_le(3.0), 1.0);
    }

    #[test]
    fn quantiles_exact() {
        let mut c = Cdf::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            c.record(x);
        }
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.quantile(0.2), Some(1.0));
        assert_eq!(c.quantile(0.5), Some(3.0));
        assert_eq!(c.quantile(1.0), Some(5.0));
        assert_eq!(c.max(), Some(5.0));
    }

    #[test]
    fn interleaved_record_and_query() {
        let mut c = Cdf::new();
        c.record(2.0);
        assert_eq!(c.prob_lt(3.0), 1.0);
        c.record(4.0);
        assert_eq!(c.prob_lt(3.0), 0.5, "re-sorts after new samples");
    }

    #[test]
    fn curve_matches_pointwise_queries() {
        let mut c = Cdf::new();
        for i in 0..10 {
            c.record(f64::from(i));
        }
        let pts = c.curve(&[0.0, 5.0, 10.0]);
        assert_eq!(pts, vec![(0.0, 0.0), (5.0, 0.5), (10.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_rejected() {
        Cdf::new().record(f64::NAN);
    }

    #[test]
    fn below_cap_is_byte_identical_to_exact() {
        let mut exact = Cdf::new();
        let mut capped = Cdf::with_cap(2250, 0xC4A7);
        let mut x = 0.1_f64;
        for _ in 0..2250 {
            x = (x * 1.37 + 0.11) % 5.0;
            exact.record(x);
            capped.record(x);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(
                exact.quantile(q).unwrap().to_bits(),
                capped.quantile(q).unwrap().to_bits(),
                "quantile {q}"
            );
        }
        assert_eq!(exact.prob_lt(2.5).to_bits(), capped.prob_lt(2.5).to_bits());
        assert_eq!(exact.mean().to_bits(), capped.mean().to_bits());
        assert_eq!(capped.seen(), 2250);
    }

    #[test]
    fn reservoir_bounds_memory_and_stays_representative() {
        let cap = 1000;
        let mut c = Cdf::with_cap(cap, 7);
        let n: u32 = 200_000;
        for i in 0..n {
            c.record(f64::from(i));
        }
        assert_eq!(c.count(), cap);
        assert_eq!(c.seen(), u64::from(n));
        assert!(c.bytes() <= cap * 8 * 2, "retained {} bytes", c.bytes());
        // Uniform over [0, n): the reservoir median should sit near n/2.
        let median = c.quantile(0.5).unwrap();
        let mid = f64::from(n) / 2.0;
        assert!((median - mid).abs() < mid * 0.1, "median {median} vs {mid}");
    }

    #[test]
    fn reservoir_is_seed_deterministic() {
        let run = |seed| {
            let mut c = Cdf::with_cap(100, seed);
            for i in 0..10_000 {
                c.record(f64::from(i));
            }
            c.quantile(0.5).unwrap()
        };
        assert_eq!(run(1).to_bits(), run(1).to_bits());
        assert_ne!(run(1).to_bits(), run(2).to_bits(), "different seeds, different reservoir");
    }

    #[test]
    fn merge_is_order_invariant_and_counts_add() {
        let mut a = Cdf::new();
        let mut b = Cdf::new();
        for i in 0..50 {
            a.record(f64::from(i));
            b.record(f64::from(100 - i));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.seen(), 100);
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(ab.quantile(q).unwrap().to_bits(), ba.quantile(q).unwrap().to_bits());
        }
        let mut empty = Cdf::new();
        empty.merge(&Cdf::new());
        assert!(empty.is_empty());
    }
}
