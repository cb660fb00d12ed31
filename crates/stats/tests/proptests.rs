//! Property tests for the stats subsystem.
//!
//! The two load-bearing properties the replication engine relies on:
//! sketch `merge` must be associative and order-insensitive (a folded
//! summary equals the one-shot summary however the per-seed parts are
//! grouped), and bootstrap confidence intervals must be byte-identical
//! across runs with the same seed.
#![allow(clippy::float_cmp)]

use proptest::prelude::*;

use stabl_sim::DetRng;
use stabl_stats::{percentile_ci, MeanVar, QuantileSketch, SeedSequence};

fn latencies() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..500.0, 1..120)
}

fn scores() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..10.0, 1..12)
}

proptest! {
    /// Grouping: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) bit-for-bit for the
    /// integer quantile sketch.
    #[test]
    fn sketch_merge_is_associative(data in latencies(), cut_a in 0usize..120, cut_b in 0usize..120) {
        let i = cut_a.min(data.len());
        let j = cut_b.min(data.len()).max(i);
        let a = QuantileSketch::from_secs(data[..i].iter().copied());
        let b = QuantileSketch::from_secs(data[i..j].iter().copied());
        let c = QuantileSketch::from_secs(data[j..].iter().copied());

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert_eq!(&left, &right);
    }

    /// Order: any merge order equals the one-shot sketch bit-for-bit.
    #[test]
    fn sketch_merge_is_order_insensitive(data in latencies(), cut in 0usize..120) {
        let i = cut.min(data.len());
        let one_shot = QuantileSketch::from_secs(data.iter().copied());

        let head = QuantileSketch::from_secs(data[..i].iter().copied());
        let tail = QuantileSketch::from_secs(data[i..].iter().copied());

        let mut forward = head.clone();
        forward.merge(&tail);
        let mut backward = tail.clone();
        backward.merge(&head);

        prop_assert_eq!(&forward, &one_shot);
        prop_assert_eq!(&backward, &one_shot);
    }

    /// Sketch quantiles stay within the grid's 1/64 relative error of
    /// the exact nearest-rank quantile (plus the 0.5 µs rounding).
    #[test]
    fn sketch_quantile_error_is_bounded(data in latencies(), q in 0.0f64..1.0) {
        let sketch = QuantileSketch::from_secs(data.iter().copied());
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let approx = sketch.quantile(q).expect("non-empty");
        // Bucket lower bound can undershoot by 1/64 relative; rounding
        // to whole microseconds adds half a microsecond of slack.
        let tolerance = exact / 64.0 + 1e-6;
        prop_assert!(approx <= exact + 1e-6, "approx {} exact {}", approx, exact);
        prop_assert!(approx >= exact - tolerance, "approx {} exact {}", approx, exact);
    }

    /// Welford merge matches the one-shot moments to floating-point
    /// tolerance, and exactly in count/min/max.
    #[test]
    fn meanvar_merge_is_order_insensitive(data in latencies(), cut in 0usize..120) {
        let i = cut.min(data.len());
        let one_shot = MeanVar::from_samples(data.iter().copied());

        let head = MeanVar::from_samples(data[..i].iter().copied());
        let tail = MeanVar::from_samples(data[i..].iter().copied());
        let mut forward = head.clone();
        forward.merge(&tail);
        let mut backward = tail.clone();
        backward.merge(&head);

        for merged in [&forward, &backward] {
            prop_assert_eq!(merged.count, one_shot.count);
            prop_assert_eq!(merged.min, one_shot.min);
            prop_assert_eq!(merged.max, one_shot.max);
            prop_assert!((merged.mean - one_shot.mean).abs() < 1e-9,
                "mean {} vs {}", merged.mean, one_shot.mean);
            prop_assert!((merged.m2 - one_shot.m2).abs() < 1e-6 * (1.0 + one_shot.m2),
                "m2 {} vs {}", merged.m2, one_shot.m2);
        }
    }

    /// Two bootstrap runs with the same seed agree to the bit; a
    /// different seed moves at least one endpoint (for spread data).
    #[test]
    fn bootstrap_is_byte_identical_per_seed(data in scores(), seed in 0u64..1_000_000) {
        let a = percentile_ci(&data, &mut DetRng::new(seed)).expect("finite samples");
        let b = percentile_ci(&data, &mut DetRng::new(seed)).expect("finite samples");
        prop_assert_eq!(a.point.to_bits(), b.point.to_bits());
        prop_assert_eq!(a.lo.to_bits(), b.lo.to_bits());
        prop_assert_eq!(a.hi.to_bits(), b.hi.to_bits());
        prop_assert_eq!(a.n, b.n);
    }

    /// The interval always brackets its point estimate.
    #[test]
    fn bootstrap_brackets_the_mean(data in scores(), seed in 0u64..1_000_000) {
        let ci = percentile_ci(&data, &mut DetRng::new(seed)).expect("finite samples");
        prop_assert!(ci.lo <= ci.point + 1e-12, "lo {} point {}", ci.lo, ci.point);
        prop_assert!(ci.hi >= ci.point - 1e-12, "hi {} point {}", ci.hi, ci.point);
        prop_assert!(ci.lo.is_finite() && ci.hi.is_finite());
    }

    /// Seed sequences are pure functions of (base, index) and distinct
    /// across the indices a campaign will ever use.
    #[test]
    fn seed_sequence_is_pure_and_collision_free(base in 0u64..u64::MAX) {
        let seq = SeedSequence::new(base);
        let seeds = seq.seeds(32);
        prop_assert_eq!(&seeds, &SeedSequence::new(base).seeds(32));
        prop_assert_eq!(seeds[0], base);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), seeds.len(), "collision in 32 replicates");
    }
}
