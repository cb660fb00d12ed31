//! Result types: per-run summaries, per-scenario reports and the radar
//! synthesis of Fig. 7, serialisable for the benchmark harness.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::harness::RunResult;
use crate::metrics::{QuantileSketch, Sensitivity};
use crate::{Chain, ScenarioKind};

/// Aggregate statistics of one run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Transactions submitted.
    pub submitted: usize,
    /// Transactions committed (client-observed).
    pub committed: usize,
    /// Transactions never resolved.
    pub unresolved: usize,
    /// Mean latency (seconds) of committed transactions, if any.
    pub mean_latency: Option<f64>,
    /// Median latency (seconds).
    pub p50_latency: Option<f64>,
    /// 95th-percentile latency (seconds).
    pub p95_latency: Option<f64>,
    /// Maximum latency (seconds).
    pub max_latency: Option<f64>,
    /// Liveness violated (chain stopped committing).
    pub lost_liveness: bool,
    /// Validators that aborted fatally.
    pub panicked_nodes: usize,
    /// Always 0 (a copy of `SimStats::dropped_trace_lines`); kept
    /// because serialised summaries are pinned bytes.
    pub dropped_trace_lines: u64,
}

impl RunSummary {
    /// Summarises a run.
    ///
    /// Latency quantiles come from the shared [`QuantileSketch`] rather
    /// than the exact eCDF so a replicated campaign can merge per-seed
    /// summaries associatively; the sketch quantises p50/p95 onto its
    /// 1/64-relative-error grid (min, max and mean stay exact).
    pub fn of(result: &RunResult) -> RunSummary {
        let ecdf = result.ecdf().ok();
        let sketch = QuantileSketch::from_secs(result.latencies.iter().copied());
        RunSummary {
            submitted: result.submitted,
            committed: result.latencies.len(),
            unresolved: result.unresolved,
            mean_latency: ecdf.as_ref().map(|e| e.mean()),
            p50_latency: sketch.quantile(0.5),
            p95_latency: sketch.quantile(0.95),
            max_latency: sketch.max_secs(),
            lost_liveness: result.lost_liveness,
            panicked_nodes: {
                let mut nodes: Vec<u32> = result.panics.iter().map(|p| p.node.as_u32()).collect();
                nodes.sort_unstable();
                nodes.dedup();
                nodes.len()
            },
            dropped_trace_lines: result.stats.dropped_trace_lines,
        }
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} committed", self.committed, self.submitted)?;
        if let (Some(mean), Some(p95)) = (self.mean_latency, self.p95_latency) {
            write!(f, ", latency mean {mean:.2}s p95 {p95:.2}s")?;
        }
        if self.lost_liveness {
            write!(f, ", LIVENESS LOST")?;
        }
        if self.panicked_nodes > 0 {
            write!(f, ", {} nodes panicked", self.panicked_nodes)?;
        }
        Ok(())
    }
}

/// The serialisable form of a [`Sensitivity`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SensitivityRecord {
    /// The finite score, `None` for a liveness violation (∞).
    pub score: Option<f64>,
    /// The altered environment improved on the baseline (striped bar).
    pub improved: bool,
}

impl From<Sensitivity> for SensitivityRecord {
    fn from(s: Sensitivity) -> SensitivityRecord {
        match s {
            Sensitivity::Finite { score, improved } => SensitivityRecord {
                score: Some(score),
                improved,
            },
            Sensitivity::Infinite => SensitivityRecord {
                score: None,
                improved: false,
            },
        }
    }
}

/// Outcome of one (chain, scenario) sensitivity measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// The evaluated blockchain.
    pub chain: Chain,
    /// The adversarial scenario.
    pub kind: ScenarioKind,
    /// The sensitivity score.
    pub sensitivity: Sensitivity,
    /// Baseline statistics.
    pub baseline: RunSummary,
    /// Altered-environment statistics.
    pub altered: RunSummary,
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} {:<13} sensitivity {:>14}  [baseline: {} | altered: {}]",
            self.chain.name(),
            self.kind.name(),
            self.sensitivity.to_string(),
            self.baseline,
            self.altered
        )
    }
}

/// All four sensitivity dimensions of one chain (one radar polygon of
/// Fig. 7).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RadarRow {
    /// The chain name.
    pub chain: String,
    /// Sensitivity to `f = t` crashes.
    pub crash: SensitivityRecord,
    /// Sensitivity to `f = t + 1` transient failures.
    pub transient: SensitivityRecord,
    /// Sensitivity to a transient partition of `f = t + 1` nodes.
    pub partition: SensitivityRecord,
    /// Sensitivity to the secure client.
    pub secure_client: SensitivityRecord,
}

/// Renders an ASCII bar for a score against a scale maximum.
pub fn ascii_bar(record: SensitivityRecord, scale_max: f64, width: usize) -> String {
    match record.score {
        None => format!("{} ∞", "#".repeat(width)),
        Some(score) => {
            let filled = if scale_max <= 0.0 {
                0
            } else {
                ((score / scale_max) * width as f64).round() as usize
            };
            let glyph = if record.improved { "/" } else { "#" };
            format!(
                "{} {:.3}{}",
                glyph.repeat(filled.min(width)),
                score,
                if record.improved { " (improved)" } else { "" }
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RunResult;
    use crate::metrics::StageLatencies;
    use stabl_sim::{SimStats, SimTime};

    fn result_with_latencies(latencies: &[f64]) -> RunResult {
        RunResult {
            latencies: latencies.to_vec(),
            commit_times: vec![SimTime::ZERO; latencies.len()],
            submitted: latencies.len(),
            unresolved: 0,
            lost_liveness: false,
            panics: Vec::new(),
            stats: SimStats::default(),
            retries: 0,
            give_ups: 0,
            horizon: SimTime::ZERO,
            stages: StageLatencies::new(),
        }
    }

    /// Pins the sketch-backed summary quantiles against exact
    /// sorted-order nearest-rank quantiles. The inputs sit in the
    /// sketch's exact region (< 128 µs) and on grid-aligned bucket
    /// bounds, so quantisation must not move them at all.
    #[test]
    fn summary_quantiles_match_exact_sorted_order() {
        // 5 samples, all below 128 µs: the sketch is exact here.
        let run = result_with_latencies(&[0.000_030, 0.000_010, 0.000_050, 0.000_020, 0.000_040]);
        let summary = RunSummary::of(&run);
        // Nearest-rank: p50 → rank ⌈2.5⌉ = 3, p95 → rank ⌈4.75⌉ = 5.
        assert_eq!(summary.p50_latency, Some(0.000_030));
        assert_eq!(summary.p95_latency, Some(0.000_050));
        assert_eq!(summary.max_latency, Some(0.000_050));

        // 20 samples of 1..=20 µs: p50 → rank 10, p95 → rank 19.
        let micros: Vec<f64> = (1..=20).map(|i| i as f64 * 1e-6).collect();
        let run = result_with_latencies(&micros);
        let summary = RunSummary::of(&run);
        assert_eq!(summary.p50_latency, Some(0.000_010));
        assert_eq!(summary.p95_latency, Some(0.000_019));
        assert_eq!(summary.max_latency, Some(0.000_020));

        // Grid-aligned seconds-scale values (powers of two × 1 ms are
        // exact bucket lower bounds).
        let run = result_with_latencies(&[0.128, 0.256, 0.512, 1.024]);
        let summary = RunSummary::of(&run);
        assert_eq!(summary.p50_latency, Some(0.256));
        assert_eq!(summary.p95_latency, Some(1.024));
        assert_eq!(summary.max_latency, Some(1.024));
    }

    #[test]
    fn summary_of_empty_run_has_no_latency_stats() {
        let summary = RunSummary::of(&result_with_latencies(&[]));
        assert_eq!(summary.mean_latency, None);
        assert_eq!(summary.p50_latency, None);
        assert_eq!(summary.p95_latency, None);
        assert_eq!(summary.max_latency, None);
    }

    #[test]
    fn sensitivity_record_roundtrip() {
        let fin: SensitivityRecord = Sensitivity::Finite {
            score: 2.5,
            improved: true,
        }
        .into();
        assert_eq!(fin.score, Some(2.5));
        assert!(fin.improved);
        let inf: SensitivityRecord = Sensitivity::Infinite.into();
        assert_eq!(inf.score, None);
    }

    #[test]
    fn serde_roundtrip() {
        let row = RadarRow {
            chain: "Redbelly".into(),
            crash: SensitivityRecord {
                score: Some(0.1),
                improved: false,
            },
            transient: SensitivityRecord {
                score: Some(1.0),
                improved: false,
            },
            partition: SensitivityRecord {
                score: Some(2.0),
                improved: false,
            },
            secure_client: SensitivityRecord {
                score: Some(0.2),
                improved: true,
            },
        };
        let json = serde_json::to_string(&row).expect("serialise");
        let back: RadarRow = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(row, back);
    }

    #[test]
    fn ascii_bars() {
        let inf = ascii_bar(
            SensitivityRecord {
                score: None,
                improved: false,
            },
            10.0,
            4,
        );
        assert_eq!(inf, "#### ∞");
        let half = ascii_bar(
            SensitivityRecord {
                score: Some(5.0),
                improved: false,
            },
            10.0,
            4,
        );
        assert!(half.starts_with("## 5.000"), "{half}");
        let improved = ascii_bar(
            SensitivityRecord {
                score: Some(10.0),
                improved: true,
            },
            10.0,
            4,
        );
        assert!(improved.starts_with("//// 10.000"), "{improved}");
    }
}
