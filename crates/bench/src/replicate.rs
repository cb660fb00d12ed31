//! The replication engine: fans the full campaign matrix out over a
//! [`SeedSequence`] of N seeds and folds the per-seed reports into
//! [`ReplicatedCell`] summaries with bootstrap confidence intervals.
//!
//! All `replicates × 30` cells go to the worker pool as **one** batch,
//! so the pool never drains between replicates and every cell is
//! individually memoised by the content-addressed cache (replicate 0
//! reuses the unreplicated campaign's cached cells — its seed is the
//! base seed itself). Assembly is per-seed-chunk in submission order,
//! so the artifact is byte-identical whatever the `--jobs` count or
//! cache state.

use stabl::report::{ScenarioReport, SensitivityRecord};
use stabl::PaperSetup;
use stabl_stats::{CellObservation, ReplicatedCampaign, ReplicatedCell, SeedSequence};

use crate::engine::{campaign_cells, reports_from_campaign_results, Engine, EngineTelemetry};

/// Default replicate count for the CI-bearing figure campaigns: 8 seeds
/// keeps the quick campaign in CI budget while giving the bootstrap
/// enough spread to resolve a 95 % interval.
pub const DEFAULT_REPLICATES: usize = 8;

/// The altered-run commit ratio a [`ScenarioReport`] implies (mirrors
/// `RunResult::commit_ratio`: a run that submitted nothing trivially
/// committed everything).
fn commit_ratio(report: &ScenarioReport) -> f64 {
    let summary = &report.altered;
    if summary.submitted == 0 {
        return 1.0;
    }
    (summary.submitted - summary.unresolved) as f64 / summary.submitted as f64
}

/// Runs the campaign at `replicates` seeds and folds each (chain,
/// scenario) cell into a replicated summary; also returns the batch's
/// wall-clock telemetry (machine-dependent, for a *separate* artefact).
///
/// # Panics
///
/// Panics if `replicates` is zero.
pub fn run_replicated_campaign(
    engine: &Engine,
    setup: &PaperSetup,
    replicates: usize,
) -> (ReplicatedCampaign, EngineTelemetry) {
    assert!(replicates > 0, "a replication needs at least one seed");
    let seeds = SeedSequence::new(setup.seed);
    let cells = campaign_cells();
    // One flat batch, seed-major: replicate r occupies the job range
    // [r * cells.len(), (r + 1) * cells.len()).
    let mut jobs = Vec::with_capacity(replicates * cells.len());
    let mut setups = Vec::with_capacity(replicates);
    for r in 0..replicates {
        let replicate_setup = PaperSetup {
            seed: seeds.seed(r),
            ..setup.clone()
        };
        jobs.extend(cells.iter().map(|cell| cell.job(&replicate_setup)));
        setups.push(replicate_setup);
    }
    let (results, telemetry) = engine.run_with_telemetry(jobs);

    // Per-replicate report assembly, then a per-cell fold across seeds:
    // every replicate's reports come in the same (chain, scenario) order.
    let per_seed: Vec<Vec<ScenarioReport>> = results
        .chunks(cells.len())
        .map(reports_from_campaign_results)
        .collect();
    let folded = (0..per_seed[0].len())
        .map(|cell| {
            let observations: Vec<CellObservation> = per_seed
                .iter()
                .zip(&setups)
                .map(|(reports, replicate_setup)| {
                    let report = &reports[cell];
                    let record: SensitivityRecord = report.sensitivity.into();
                    CellObservation {
                        seed: replicate_setup.seed,
                        score: record.score,
                        improved: record.improved,
                        commit_ratio: commit_ratio(report),
                        mean_latency: report.altered.mean_latency,
                    }
                })
                .collect();
            let first = &per_seed[0][cell];
            ReplicatedCell::from_observations(
                first.chain.name(),
                first.kind.name(),
                &observations,
                setup.seed,
            )
        })
        .collect();
    let campaign = ReplicatedCampaign {
        base_seed: setup.seed,
        replicates: replicates as u64,
        horizon_secs: setup.horizon.as_secs_f64().round() as u64,
        cells: folded,
    };
    (campaign, telemetry)
}

/// Formats a replicated campaign as a human table: one row per cell,
/// `score ± CI` (or the infinite count) plus the commit-ratio interval.
pub fn replication_table(title: &str, campaign: &ReplicatedCampaign) -> String {
    let mut out = format!(
        "{title}\n{}\n{:<10} {:<13} {:>24} {:>22}\n",
        "─".repeat(title.chars().count()),
        "chain",
        "scenario",
        "sensitivity (95% CI)",
        "commit ratio (95% CI)",
    );
    for cell in &campaign.cells {
        let score = match (&cell.score.ci, cell.infinite) {
            (_, n) if n == cell.replicates => "∞ (all replicates)".to_owned(),
            (Some(ci), 0) => format!("{:.3} [{:.3}, {:.3}]", ci.point, ci.lo, ci.hi),
            (Some(ci), n) => format!("{:.3} [{:.3}, {:.3}] +{n}∞", ci.point, ci.lo, ci.hi),
            (None, n) => format!("no finite scores ({n}∞)"),
        };
        let ratio = match &cell.commit_ratio.ci {
            Some(ci) => format!("{:.3} [{:.3}, {:.3}]", ci.point, ci.lo, ci.hi),
            None => "—".to_owned(),
        };
        out.push_str(&format!(
            "{:<10} {:<13} {:>24} {:>22}\n",
            cell.chain, cell.scenario, score, ratio
        ));
    }
    out.push_str(&format!(
        "({} replicates per cell, seeds from SeedSequence({:#x}))\n",
        campaign.replicates, campaign.base_seed
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabl::{Chain, ScenarioKind};

    /// A tiny end-to-end replication: 2 seeds over the quickest
    /// campaign the harness supports, twice, byte-identical.
    #[test]
    fn replicated_campaign_is_deterministic() {
        let setup = PaperSetup::quick(8, 42);
        let engine = Engine::new(2, None);
        let (a, _) = run_replicated_campaign(&engine, &setup, 2);
        let (b, _) = run_replicated_campaign(&engine, &setup, 2);
        let ja = serde_json::to_string(&a).expect("serialise");
        let jb = serde_json::to_string(&b).expect("serialise");
        assert_eq!(ja, jb, "replication must replay byte-identically");
        assert_eq!(
            a.cells.len(),
            Chain::ALL.len() * ScenarioKind::ALTERED.len()
        );
        assert_eq!(a.replicates, 2);
        for cell in &a.cells {
            assert_eq!(cell.replicates, 2);
            assert_eq!(cell.scores.len(), 2);
            // Replicate 0 runs under the base seed itself.
            assert_eq!(cell.scores[0].seed, 42);
            assert!(
                cell.commit_ratio.ci.is_some(),
                "commit-ratio CI must exist for {}/{}",
                cell.chain,
                cell.scenario
            );
        }
    }

    #[test]
    fn single_replicate_matches_unreplicated_campaign() {
        let setup = PaperSetup::quick(8, 42);
        let engine = Engine::new(2, None);
        let (replicated, _) = run_replicated_campaign(&engine, &setup, 1);
        let (reports, _) = crate::engine::run_campaign(&engine, &setup);
        for (cell, report) in replicated.cells.iter().zip(&reports) {
            assert_eq!(cell.chain, report.chain.name());
            assert_eq!(cell.scenario, report.kind.name());
            let record: SensitivityRecord = report.sensitivity.into();
            assert_eq!(cell.scores[0].score, record.score);
        }
    }
}
