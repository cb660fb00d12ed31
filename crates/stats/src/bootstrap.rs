//! Percentile-bootstrap confidence intervals on replicate means.
//!
//! With N replicate scores per cell (N ≈ 8) a normal-theory interval
//! would lean on asymptotics the sample cannot support, so replication
//! uses the percentile bootstrap instead: resample the N scores with
//! replacement [`BOOTSTRAP_RESAMPLES`] times, take the mean of each
//! resample, and read the interval off the empirical quantiles of those
//! means. Resampling indices come from [`stabl_sim::DetRng`] — never an
//! ambient RNG — so the interval is a pure function of (samples, seed)
//! and replays byte-identically, which the proptests pin via
//! `f64::to_bits`.

use serde::{Deserialize, Serialize};
use stabl_sim::DetRng;

/// Bootstrap resamples drawn per interval. 1000 keeps the Monte-Carlo
/// error on a 95 % endpoint well under the seed-to-seed spread while
/// costing microseconds per cell.
pub const BOOTSTRAP_RESAMPLES: usize = 1000;

/// Two-sided significance level: `0.05` gives 95 % intervals.
pub const CI_ALPHA: f64 = 0.05;

/// A two-sided percentile-bootstrap confidence interval on a mean.
///
/// # Examples
///
/// ```
/// use stabl_sim::DetRng;
/// use stabl_stats::percentile_ci;
///
/// let scores = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02, 0.98, 1.0];
/// let ci = percentile_ci(&scores, &mut DetRng::new(42)).expect("non-empty");
/// assert!(ci.lo <= ci.point && ci.point <= ci.hi);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// The point estimate: the plain mean of the samples.
    pub point: f64,
    /// Lower endpoint (the `α/2` quantile of the resample means).
    pub lo: f64,
    /// Upper endpoint (the `1 − α/2` quantile of the resample means).
    pub hi: f64,
    /// Samples the interval was computed from.
    pub n: u64,
}

impl ConfidenceInterval {
    /// Whether `value` lies inside the closed interval `[lo, hi]`.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo && value <= self.hi
    }

    /// The interval width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Nearest-rank quantile of a sorted slice (same rank rule as the
/// simulator's `Ecdf`): rank `⌈q·n⌉` clamped to `[1, n]`, 1-indexed.
fn sorted_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Computes a 95 % percentile-bootstrap confidence interval on the mean
/// of `samples`, drawing resample indices from `rng`.
///
/// Returns `None` if `samples` is empty or contains a non-finite value
/// (the caller is expected to have filtered structural infinities —
/// e.g. liveness-loss sensitivity scores — before bootstrapping).
/// With a single sample the interval degenerates to a point.
pub fn percentile_ci(samples: &[f64], rng: &mut DetRng) -> Option<ConfidenceInterval> {
    if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
        return None;
    }
    let n = samples.len();
    let point = samples.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return Some(ConfidenceInterval {
            point,
            lo: point,
            hi: point,
            n: 1,
        });
    }
    let mut means = Vec::with_capacity(BOOTSTRAP_RESAMPLES);
    for _ in 0..BOOTSTRAP_RESAMPLES {
        let mut sum = 0.0;
        for _ in 0..n {
            sum += samples[rng.next_below(n as u64) as usize];
        }
        means.push(sum / n as f64);
    }
    means.sort_by(f64::total_cmp);
    let lo = sorted_quantile(&means, CI_ALPHA / 2.0)?;
    let hi = sorted_quantile(&means, 1.0 - CI_ALPHA / 2.0)?;
    Some(ConfidenceInterval {
        point,
        lo,
        hi,
        n: n as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_non_finite_yield_none() {
        let mut rng = DetRng::new(1);
        assert_eq!(percentile_ci(&[], &mut rng), None);
        assert_eq!(percentile_ci(&[1.0, f64::NAN], &mut rng), None);
        assert_eq!(percentile_ci(&[f64::INFINITY], &mut rng), None);
    }

    #[test]
    fn single_sample_degenerates_to_a_point() {
        let mut rng = DetRng::new(1);
        let ci = percentile_ci(&[2.5], &mut rng).expect("one sample");
        assert_eq!((ci.lo, ci.point, ci.hi, ci.n), (2.5, 2.5, 2.5, 1));
    }

    #[test]
    fn interval_brackets_the_mean_and_spans_the_spread() {
        let samples = [1.0, 1.2, 0.8, 1.1, 0.9, 1.05, 0.95, 1.0];
        let mut rng = DetRng::new(42);
        let ci = percentile_ci(&samples, &mut rng).expect("samples");
        assert!(ci.lo <= ci.point && ci.point <= ci.hi);
        assert!(ci.width() > 0.0);
        // The interval on the mean must be narrower than the data range.
        assert!(ci.width() < 0.4, "width {}", ci.width());
        assert_eq!(ci.n, 8);
    }

    #[test]
    fn identical_samples_give_zero_width() {
        let mut rng = DetRng::new(7);
        let ci = percentile_ci(&[3.0; 8], &mut rng).expect("samples");
        assert_eq!((ci.lo, ci.hi), (3.0, 3.0));
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let samples = [0.3, 0.6, 0.1, 0.9, 0.5];
        let a = percentile_ci(&samples, &mut DetRng::new(99)).expect("a");
        let b = percentile_ci(&samples, &mut DetRng::new(99)).expect("b");
        assert_eq!(a.lo.to_bits(), b.lo.to_bits());
        assert_eq!(a.hi.to_bits(), b.hi.to_bits());
        assert_eq!(a.point.to_bits(), b.point.to_bits());
    }

    #[test]
    fn contains_is_closed() {
        let ci = ConfidenceInterval {
            point: 1.0,
            lo: 0.5,
            hi: 1.5,
            n: 4,
        };
        assert!(ci.contains(0.5) && ci.contains(1.5));
        assert!(!ci.contains(0.499) && !ci.contains(1.501));
    }
}
