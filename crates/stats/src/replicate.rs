//! Replication statistics: folding N per-seed observations of one
//! (chain, scenario) cell into a [`ReplicatedCell`] summary with
//! bootstrap confidence intervals.
//!
//! The bench crate owns the fan-out (it drives the worker pool and the
//! cache); this module owns what happens after the runs come back. A
//! cell's sensitivity score can be structurally infinite — a liveness
//! loss divides by a zero commit count — so a CI on the score alone
//! cannot be finite for every cell. [`ReplicatedCell`] therefore
//! reports three intervals: the score over the finite replicates, plus
//! commit ratio and mean latency, which are finite whenever anything
//! committed; the infinite replicate count is carried alongside so a
//! cell that flips between finite and infinite across seeds is visible
//! rather than averaged away.

use serde::{Deserialize, Serialize};
use stabl_sim::DetRng;

use crate::bootstrap::{percentile_ci, ConfidenceInterval};

/// FNV-1a hash of a label string, used to derive an independent
/// bootstrap stream per (cell, metric) without any ambient entropy.
fn label_hash(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for byte in part.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Separator so ["ab","c"] and ["a","bc"] hash differently.
        h ^= 0x1F;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One replicate's raw observation of a (chain, scenario) cell.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellObservation {
    /// The seed this replicate ran under.
    pub seed: u64,
    /// The sensitivity score, `None` for a liveness violation (∞).
    pub score: Option<f64>,
    /// The altered environment improved on the baseline.
    pub improved: bool,
    /// Committed / submitted in the altered run, in `[0, 1]`.
    pub commit_ratio: f64,
    /// Mean commit latency (seconds) of the altered run, if anything
    /// committed.
    pub mean_latency: Option<f64>,
}

/// The per-replicate score record kept inside a [`ReplicatedCell`] so
/// artifacts stay auditable down to individual seeds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplicateScore {
    /// The replicate's seed.
    pub seed: u64,
    /// The finite score, `None` for a liveness violation (∞).
    pub score: Option<f64>,
}

/// A bootstrap confidence interval on one metric of a replicated cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricCi {
    /// The metric name (`"score"`, `"commit_ratio"`, `"mean_latency"`).
    pub metric: String,
    /// The 95 % interval, `None` if no finite samples were available.
    pub ci: Option<ConfidenceInterval>,
    /// Finite samples the interval is built from.
    pub finite: u64,
}

/// The replicated summary of one (chain, scenario) cell: N seeds, three
/// bootstrap confidence intervals and the per-seed score trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedCell {
    /// The evaluated blockchain.
    pub chain: String,
    /// The adversarial scenario.
    pub scenario: String,
    /// Total replicates run.
    pub replicates: u64,
    /// Replicates whose sensitivity was infinite (liveness loss).
    pub infinite: u64,
    /// Replicates where the altered environment improved on baseline.
    pub improved: u64,
    /// CI on the sensitivity score over the finite replicates.
    pub score: MetricCi,
    /// CI on the altered run's commit ratio (finite for every run).
    pub commit_ratio: MetricCi,
    /// CI on the altered run's mean commit latency.
    pub mean_latency: MetricCi,
    /// The per-seed score trace, in replicate order.
    pub scores: Vec<ReplicateScore>,
}

/// Builds one metric's CI from its finite samples, deriving the
/// bootstrap stream from `(bootstrap_seed, chain, scenario, metric)` so
/// every interval is independent and byte-replayable.
fn metric_ci(
    metric: &str,
    samples: &[f64],
    chain: &str,
    scenario: &str,
    bootstrap_seed: u64,
) -> MetricCi {
    let mut rng = DetRng::new(bootstrap_seed).derive(label_hash(&[chain, scenario, metric]));
    MetricCi {
        metric: metric.to_owned(),
        ci: percentile_ci(samples, &mut rng),
        finite: samples.len() as u64,
    }
}

/// A whole replicated campaign: the artifact format the
/// `fig3_sensitivity_ci` campaign writes (`results/fig3_sensitivity_ci.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedCampaign {
    /// The base seed the [`crate::SeedSequence`] was rooted at.
    pub base_seed: u64,
    /// Replicates run per cell.
    pub replicates: u64,
    /// Simulated horizon in seconds.
    pub horizon_secs: u64,
    /// One summary per (chain, scenario) cell, chain-major.
    pub cells: Vec<ReplicatedCell>,
}

impl ReplicatedCampaign {
    /// Looks up the cell for `(chain, scenario)`, if present.
    pub fn cell(&self, chain: &str, scenario: &str) -> Option<&ReplicatedCell> {
        self.cells
            .iter()
            .find(|c| c.chain == chain && c.scenario == scenario)
    }
}

impl ReplicatedCell {
    /// Folds the per-seed observations of one cell into a replicated
    /// summary. `bootstrap_seed` seeds the resampling streams (pass the
    /// campaign's base seed so the whole artifact is a pure function of
    /// it).
    pub fn from_observations(
        chain: &str,
        scenario: &str,
        observations: &[CellObservation],
        bootstrap_seed: u64,
    ) -> ReplicatedCell {
        let finite_scores: Vec<f64> = observations
            .iter()
            .filter_map(|o| o.score)
            .filter(|s| s.is_finite())
            .collect();
        let commit_ratios: Vec<f64> = observations.iter().map(|o| o.commit_ratio).collect();
        let mean_latencies: Vec<f64> = observations
            .iter()
            .filter_map(|o| o.mean_latency)
            .filter(|l| l.is_finite())
            .collect();
        ReplicatedCell {
            chain: chain.to_owned(),
            scenario: scenario.to_owned(),
            replicates: observations.len() as u64,
            infinite: observations.iter().filter(|o| o.score.is_none()).count() as u64,
            improved: observations.iter().filter(|o| o.improved).count() as u64,
            score: metric_ci("score", &finite_scores, chain, scenario, bootstrap_seed),
            commit_ratio: metric_ci(
                "commit_ratio",
                &commit_ratios,
                chain,
                scenario,
                bootstrap_seed,
            ),
            mean_latency: metric_ci(
                "mean_latency",
                &mean_latencies,
                chain,
                scenario,
                bootstrap_seed,
            ),
            scores: observations
                .iter()
                .map(|o| ReplicateScore {
                    seed: o.seed,
                    score: o.score,
                })
                .collect(),
        }
    }

    /// `true` if every replicate kept liveness (no infinite scores).
    pub fn all_finite(&self) -> bool {
        self.infinite == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(seed: u64, score: Option<f64>, ratio: f64) -> CellObservation {
        CellObservation {
            seed,
            score,
            improved: false,
            commit_ratio: ratio,
            mean_latency: Some(0.5),
        }
    }

    #[test]
    fn all_finite_cell_has_three_intervals() {
        let observations: Vec<CellObservation> = (0..8)
            .map(|i| obs(i, Some(1.0 + i as f64 * 0.01), 0.99))
            .collect();
        let cell = ReplicatedCell::from_observations("Redbelly", "crash", &observations, 42);
        assert_eq!(cell.replicates, 8);
        assert_eq!(cell.infinite, 0);
        assert!(cell.all_finite());
        for metric in [&cell.score, &cell.commit_ratio, &cell.mean_latency] {
            let ci = metric.ci.as_ref().expect("finite metric");
            assert!(ci.lo.is_finite() && ci.hi.is_finite());
            assert_eq!(metric.finite, 8);
        }
        assert_eq!(cell.scores.len(), 8);
    }

    #[test]
    fn infinite_replicates_are_counted_not_averaged() {
        let observations = vec![
            obs(0, Some(2.0), 0.9),
            obs(1, None, 0.0),
            obs(2, Some(2.2), 0.9),
            obs(3, None, 0.0),
        ];
        let cell = ReplicatedCell::from_observations("Solana", "partition", &observations, 42);
        assert_eq!(cell.infinite, 2);
        assert!(!cell.all_finite());
        assert_eq!(cell.score.finite, 2);
        assert!(cell.score.ci.is_some(), "score CI over finite replicates");
        // The commit-ratio CI always exists, even with liveness losses.
        assert_eq!(cell.commit_ratio.finite, 4);
        assert!(cell.commit_ratio.ci.is_some());
    }

    #[test]
    fn fully_infinite_cell_still_has_commit_ratio_ci() {
        let observations = vec![obs(0, None, 0.0), obs(1, None, 0.0)];
        let cell = ReplicatedCell::from_observations("Aptos", "transient", &observations, 42);
        assert_eq!(cell.infinite, 2);
        assert_eq!(cell.score.ci, None, "no finite scores to bootstrap");
        assert!(cell.commit_ratio.ci.is_some());
    }

    #[test]
    fn replay_is_byte_identical() {
        let observations: Vec<CellObservation> = (0..8)
            .map(|i| obs(i, Some((i as f64).sin() + 2.0), 0.95))
            .collect();
        let a = ReplicatedCell::from_observations("Algorand", "crash", &observations, 7);
        let b = ReplicatedCell::from_observations("Algorand", "crash", &observations, 7);
        let ja = serde_json::to_string(&a).expect("serialise");
        let jb = serde_json::to_string(&b).expect("serialise");
        assert_eq!(ja, jb);
    }

    #[test]
    fn metric_streams_are_independent() {
        // Same sample values for two metrics must not produce the same
        // resampling stream: the labels differ.
        let observations: Vec<CellObservation> = (0..6)
            .map(|i| CellObservation {
                seed: i,
                score: Some(0.5 + i as f64 * 0.1),
                improved: false,
                commit_ratio: 0.5 + i as f64 * 0.1,
                mean_latency: Some(0.5 + i as f64 * 0.1),
            })
            .collect();
        let cell = ReplicatedCell::from_observations("Avalanche", "crash", &observations, 1);
        let score = cell.score.ci.expect("score");
        let ratio = cell.commit_ratio.ci.expect("ratio");
        assert_eq!(score.point.to_bits(), ratio.point.to_bits());
        assert_ne!(
            (score.lo.to_bits(), score.hi.to_bits()),
            (ratio.lo.to_bits(), ratio.hi.to_bits()),
            "independent streams should bootstrap differently"
        );
    }

    #[test]
    fn label_hash_separates_boundaries() {
        assert_ne!(label_hash(&["ab", "c"]), label_hash(&["a", "bc"]));
        assert_ne!(label_hash(&["a"]), label_hash(&["a", ""]));
    }
}
