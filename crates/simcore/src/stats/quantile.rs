//! P² single-quantile estimator (Jain & Chlamtac, CACM 1985).

/// Constant-memory estimator of one quantile of a stream.
///
/// Maintains five markers whose heights are adjusted with a piecewise-
/// parabolic (P²) update; after a modest number of samples the middle marker
/// approximates the target quantile without storing the stream.
///
/// # Accuracy caveat
///
/// The P² update assumes the stream is close to exchangeable. On strongly
/// autocorrelated streams (e.g. response times during congestion episodes,
/// where thousands of consecutive samples come from the same busy period)
/// the marker *positions* converge to the desired ranks while the marker
/// *heights* stay stuck at values interpolated during one regime, and the
/// estimate can be off by a large factor. For such streams, or whenever the
/// sample count is modest enough to retain, prefer the exact
/// [`Cdf`](super::Cdf).
///
/// # Examples
///
/// ```
/// use geodns_simcore::stats::P2Quantile;
///
/// let mut q = P2Quantile::new(0.5).unwrap();
/// for i in 0..10_001 {
///     q.record(f64::from(i));
/// }
/// let med = q.value().unwrap();
/// assert!((med - 5000.0).abs() < 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
    count: usize,
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `p`-quantile.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < p < 1`.
    pub fn new(p: f64) -> Result<Self, String> {
        if !(p > 0.0 && p < 1.0) {
            return Err(format!("P2 quantile must be in (0,1), got {p}"));
        }
        Ok(P2Quantile {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            increments: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        })
    }

    /// The target quantile `p`.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial.sort_unstable_by(|a, b| a.total_cmp(b));
                self.heights.copy_from_slice(&self.initial);
            }
            return;
        }

        // Find the cell k such that heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for pos in self.positions.iter_mut().skip(k + 1) {
            *pos += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust the three interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current estimate, or `None` with no samples.
    ///
    /// With fewer than five samples, falls back to the exact order statistic
    /// of what has been seen.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.initial.len() < 5 {
            let mut sorted = self.initial.clone();
            sorted.sort_unstable_by(|a, b| a.total_cmp(b));
            let idx = ((self.p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            return Some(sorted[idx]);
        }
        Some(self.heights[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Exponential, Uniform};
    use crate::RngStreams;

    #[test]
    fn uniform_median() {
        let mut q = P2Quantile::new(0.5).unwrap();
        let d = Uniform::new(0.0, 1.0).unwrap();
        let mut rng = RngStreams::new(0x9).stream("p2");
        for _ in 0..100_000 {
            q.record(d.sample(&mut rng));
        }
        let est = q.value().unwrap();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
    }

    #[test]
    fn exponential_p95() {
        let mut q = P2Quantile::new(0.95).unwrap();
        let d = Exponential::new(1.0);
        let mut rng = RngStreams::new(0xA).stream("p2e");
        for _ in 0..200_000 {
            q.record(d.sample(&mut rng));
        }
        let exact = -(0.05f64).ln(); // ≈ 2.9957
        let est = q.value().unwrap();
        assert!((est - exact).abs() / exact < 0.05, "p95 estimate {est} vs {exact}");
    }

    #[test]
    fn few_samples_fall_back_to_order_statistic() {
        let mut q = P2Quantile::new(0.5).unwrap();
        q.record(10.0);
        q.record(2.0);
        q.record(6.0);
        assert_eq!(q.value(), Some(6.0));
        assert_eq!(q.count(), 3);
    }

    #[test]
    fn empty_has_no_value() {
        let q = P2Quantile::new(0.9).unwrap();
        assert_eq!(q.value(), None);
    }

    #[test]
    fn rejects_degenerate_quantiles() {
        assert!(P2Quantile::new(0.0).is_err());
        assert!(P2Quantile::new(1.0).is_err());
        assert!(P2Quantile::new(f64::NAN).is_err());
    }

    #[test]
    fn monotone_stream() {
        let mut q = P2Quantile::new(0.25).unwrap();
        for i in 0..40_000 {
            q.record(f64::from(i));
        }
        let est = q.value().unwrap();
        assert!((est - 10_000.0).abs() < 500.0, "q25 of 0..40000 is ≈10000, got {est}");
    }
}
