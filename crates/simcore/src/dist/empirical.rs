//! Empirical distribution (inverse-CDF resampling of observed data).

use rand::Rng;

use super::{Distribution, ParamError};

/// Resamples from an observed data set by inverse-CDF interpolation.
///
/// Lets trace-derived data (e.g. measured hidden-load weights or think
/// times) drive the simulation instead of a parametric law.
///
/// # Examples
///
/// ```
/// use geodns_simcore::dist::{Empirical, Distribution};
/// use geodns_simcore::RngStreams;
///
/// let d = Empirical::from_samples(vec![1.0, 2.0, 2.0, 10.0]).unwrap();
/// let mut rng = RngStreams::new(1).stream("emp");
/// let x = d.sample(&mut rng);
/// assert!((1.0..=10.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    sorted: Vec<f64>,
}

impl Empirical {
    /// Builds an empirical distribution from raw samples.
    ///
    /// # Errors
    ///
    /// Returns an error if `samples` is empty or contains non-finite values.
    pub fn from_samples(mut samples: Vec<f64>) -> Result<Self, ParamError> {
        if samples.is_empty() {
            return Err(ParamError::new("empirical distribution needs at least one sample"));
        }
        if samples.iter().any(|x| !x.is_finite()) {
            return Err(ParamError::new("empirical samples must be finite"));
        }
        samples.sort_unstable_by(|a, b| a.total_cmp(b));
        Ok(Empirical { sorted: samples })
    }

    /// Number of underlying samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample set is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile (`0 <= q <= 1`) by linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1], got {q}");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] + frac * (self.sorted[hi] - self.sorted[lo])
    }

    /// The sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

impl Distribution<f64> for Empirical {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.gen::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RngStreams;

    #[test]
    fn quantiles_interpolate() {
        let d = Empirical::from_samples(vec![0.0, 10.0]).unwrap();
        assert_eq!(d.quantile(0.0), 0.0);
        assert_eq!(d.quantile(0.5), 5.0);
        assert_eq!(d.quantile(1.0), 10.0);
    }

    #[test]
    fn single_sample_is_constant() {
        let d = Empirical::from_samples(vec![4.2]).unwrap();
        let mut rng = RngStreams::new(1).stream("e1");
        assert_eq!(d.sample(&mut rng), 4.2);
        assert_eq!(d.quantile(0.3), 4.2);
    }

    #[test]
    fn resampled_mean_tracks_data() {
        let data: Vec<f64> = (0..1000).map(f64::from).collect();
        let d = Empirical::from_samples(data).unwrap();
        let mut rng = RngStreams::new(2).stream("e2");
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - d.mean()).abs() < 5.0, "resampled mean {mean} vs {}", d.mean());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Empirical::from_samples(vec![]).is_err());
        assert!(Empirical::from_samples(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn out_of_range_quantile_panics() {
        let d = Empirical::from_samples(vec![1.0]).unwrap();
        let _ = d.quantile(1.5);
    }
}
