//! Contention sensitivity under production-shaped traffic.
//!
//! The paper's workload is deliberately contention-free: a handful of
//! accounts per client, constant rate, disjoint read-write sets (§3).
//! This extension replays the fig. 3 crash scenario under the
//! production traffic model — a 10M-account Zipf population with
//! skew-colliding receivers and Poisson/burst-train arrivals — and
//! sweeps the Zipf exponent θ ∈ {0.0, 0.6, 0.9, 1.1} against burst
//! factors {1, 4, 16} while the *mean* offered rate stays pinned at
//! the paper's 200 TPS. The question: does account skew amplify a
//! chain's sensitivity to the same fault, at the same load?
//!
//! Every (chain, θ, burst) cell is replicated over a [`SeedSequence`]
//! and folded into a [`ReplicatedCell`] with 95 % bootstrap CIs, the
//! same machinery as `fig3_sensitivity_ci`. Artefacts go under
//! `<out>/contention/`.

use stabl::report::SensitivityRecord;
use stabl::{Chain, PaperSetup, ScenarioKind, TrafficModel, WorkloadSpec};
use stabl_stats::{CellObservation, ReplicatedCell, SeedSequence};

use crate::{BenchOpts, Group, Job};

/// Zipf exponents swept, in permille (0 = uniform … 1100 = past-unit
/// skew where the head accounts dominate).
const THETAS: [u32; 4] = [0, 600, 900, 1100];
/// Burst-train factors swept; 1 is pure Poisson. The traffic model
/// rescales the base rate so every factor keeps the same mean TPS.
const BURSTS: [u32; 3] = [1, 4, 16];
/// The fig. 3 fault scenario the sweep replays (`f = t_B` crashes).
const FAULT: ScenarioKind = ScenarioKind::Crash;
/// Default seeds per cell; below the fig3_ci default because the grid
/// is 12× wider than a campaign column.
const DEFAULT_REPLICATES: usize = 3;

/// One cell's coordinates in the sweep grid.
#[derive(Clone, Copy)]
struct GridPoint {
    chain: Chain,
    theta_permille: u32,
    burst: u32,
}

/// The contention counters of one run, lifted out of `SimStats`.
pub(super) fn contention_json(stats: &stabl_sim::SimStats) -> serde_json::Value {
    serde_json::json!({
        "speculative_reexecutions": stats.speculative_reexecutions,
        "conflict_aborts": stats.conflict_aborts,
        "pool_evictions": stats.pool_evictions,
        "pool_replacements": stats.pool_replacements,
    })
}

/// A cell's position on the degradation axis: infinite replicates
/// first (a liveness loss outranks any finite score), then the
/// bootstrap point estimate.
fn severity(cell: &ReplicatedCell) -> (u64, f64) {
    let point = cell.score.ci.as_ref().map_or(f64::INFINITY, |ci| ci.point);
    (cell.infinite, point)
}

/// `true` if severity never decreases along consecutive θ steps.
fn monotone_in_theta(row: &[&ReplicatedCell]) -> bool {
    row.windows(2).all(|w| {
        let (inf_a, pt_a) = severity(w[0]);
        let (inf_b, pt_b) = severity(w[1]);
        inf_b > inf_a || (inf_b == inf_a && pt_b + 1e-12 >= pt_a)
    })
}

/// Runs the θ × burst sweep and writes `contention/contention.{json,csv}`.
pub fn contention(opts: &BenchOpts) {
    let setup = &opts.setup;
    let replicates = opts.replicates.unwrap_or(DEFAULT_REPLICATES);
    eprintln!(
        "contention extension ({}, {} replicates, {} scenario)",
        setup.horizon,
        replicates,
        FAULT.name()
    );

    // The grid, chain-major so the artefact reads like fig. 3.
    let mut grid = Vec::new();
    for &chain in &Chain::ALL {
        for &theta_permille in &THETAS {
            for &burst in &BURSTS {
                grid.push(GridPoint {
                    chain,
                    theta_permille,
                    burst,
                });
            }
        }
    }

    // One seed-major batch: replicate r's groups are the r-th
    // `grid.len()` chunk, one baseline/altered pair per cell — both
    // under the *same* production workload, so the score isolates the
    // fault, not the traffic.
    let seeds = SeedSequence::new(setup.seed);
    let mut groups = Vec::with_capacity(replicates * grid.len());
    let mut replicate_seeds = Vec::with_capacity(replicates);
    for r in 0..replicates {
        let rsetup = PaperSetup {
            seed: seeds.seed(r),
            ..setup.clone()
        };
        for point in &grid {
            let model = TrafficModel::production(point.theta_permille, point.burst);
            let workload = WorkloadSpec::production(rsetup.submit_until, model);
            let label = format!(
                "{}/theta{}/burst{}",
                point.chain.name(),
                point.theta_permille,
                point.burst
            );
            let job = |kind: ScenarioKind| {
                let mut config = rsetup.run_config(point.chain, kind);
                config.workload = workload.clone();
                Job::config(format!("{label}/{}", kind.name()), point.chain, config)
            };
            groups.push(Group::pair(job(ScenarioKind::Baseline), job(FAULT)));
        }
        replicate_seeds.push(rsetup.seed);
    }
    let results = opts.engine().run_groups(groups);
    let per_replicate: Vec<_> = results.chunks(grid.len()).collect();

    // Fold each cell across its replicates.
    let mut cells: Vec<ReplicatedCell> = Vec::with_capacity(grid.len());
    let mut artefact_cells = Vec::with_capacity(grid.len());
    for (i, point) in grid.iter().enumerate() {
        let observations: Vec<CellObservation> = per_replicate
            .iter()
            .zip(&replicate_seeds)
            .map(|(replicate, &seed)| {
                let (_, altered) = replicate[i].as_pair();
                let report = replicate[i].report(point.chain, FAULT);
                let record: SensitivityRecord = report.sensitivity.into();
                CellObservation {
                    seed,
                    score: record.score,
                    improved: record.improved,
                    commit_ratio: altered.commit_ratio(),
                    mean_latency: report.altered.mean_latency,
                }
            })
            .collect();
        let scenario = format!(
            "{}/theta{}/burst{}",
            FAULT.name(),
            point.theta_permille,
            point.burst
        );
        let cell = ReplicatedCell::from_observations(
            point.chain.name(),
            &scenario,
            &observations,
            setup.seed,
        );
        // Counters from replicate 0 (the base seed) keep the artefact
        // auditable without averaging integer event counts.
        let (baseline, altered) = per_replicate[0][i].as_pair();
        artefact_cells.push(serde_json::json!({
            "chain": point.chain.name(),
            "theta_permille": point.theta_permille,
            "burst": point.burst,
            "cell": &cell,
            "contention_baseline": contention_json(&baseline.stats),
            "contention_altered": contention_json(&altered.stats),
        }));
        cells.push(cell);
    }

    // The θ-degradation table: one row per (chain, burst), severity
    // across θ in sweep order.
    let cell_at = |chain: Chain, theta: u32, burst: u32| -> &ReplicatedCell {
        let gi = grid
            .iter()
            .position(|p| p.chain == chain && p.theta_permille == theta && p.burst == burst)
            .expect("grid covers the full sweep");
        &cells[gi]
    };
    let mut monotone_rows = Vec::new();
    let mut monotone_chains = Vec::new();
    println!(
        "\nContention sweep — {} sensitivity vs Zipf θ (200 TPS mean)\n{}",
        FAULT.name(),
        "─".repeat(58)
    );
    println!(
        "{:<10} {:>5} {:>12} {:>12} {:>12} {:>12}  monotone",
        "chain", "burst", "θ=0.0", "θ=0.6", "θ=0.9", "θ=1.1"
    );
    for &chain in &Chain::ALL {
        for &burst in &BURSTS {
            let row: Vec<&ReplicatedCell> = THETAS
                .iter()
                .map(|&theta| cell_at(chain, theta, burst))
                .collect();
            let monotone = monotone_in_theta(&row);
            let fmt = |cell: &ReplicatedCell| -> String {
                match (&cell.score.ci, cell.infinite) {
                    (_, n) if n == cell.replicates => "∞".to_owned(),
                    (Some(ci), 0) => format!("{:.3}", ci.point),
                    (Some(ci), n) => format!("{:.3}+{n}∞", ci.point),
                    (None, n) => format!("{n}∞"),
                }
            };
            println!(
                "{:<10} {:>5} {:>12} {:>12} {:>12} {:>12}  {}",
                chain.name(),
                burst,
                fmt(row[0]),
                fmt(row[1]),
                fmt(row[2]),
                fmt(row[3]),
                if monotone { "yes" } else { "no" }
            );
            monotone_rows.push(serde_json::json!({
                "chain": chain.name(),
                "burst": burst,
                "monotone_in_theta": monotone,
            }));
            if monotone {
                monotone_chains.push(chain.name());
            }
        }
    }
    // The loop is chain-major, so a chain's repeats are adjacent.
    monotone_chains.dedup();
    println!(
        "\nchains degrading monotonically with θ (some burst factor): {}",
        if monotone_chains.is_empty() {
            "none".to_owned()
        } else {
            monotone_chains.join(", ")
        }
    );

    // CSV companion for plotting: one row per cell.
    let mut csv = String::from(
        "chain,theta_permille,burst,score_point,score_lo,score_hi,infinite,\
         commit_ratio,pool_evictions,pool_replacements,conflict_aborts\n",
    );
    for (i, point) in grid.iter().enumerate() {
        let cell = &cells[i];
        let (pt, lo, hi) = match &cell.score.ci {
            Some(ci) => (
                format!("{:.6}", ci.point),
                format!("{:.6}", ci.lo),
                format!("{:.6}", ci.hi),
            ),
            None => ("inf".into(), "inf".into(), "inf".into()),
        };
        let ratio = cell
            .commit_ratio
            .ci
            .as_ref()
            .map_or("".to_owned(), |ci| format!("{:.6}", ci.point));
        let stats = &per_replicate[0][i].as_pair().1.stats;
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            point.chain.name(),
            point.theta_permille,
            point.burst,
            pt,
            lo,
            hi,
            cell.infinite,
            ratio,
            stats.pool_evictions,
            stats.pool_replacements,
            stats.conflict_aborts,
        ));
    }

    let artefact = serde_json::json!({
        "base_seed": setup.seed,
        "replicates": replicates as u64,
        "horizon_secs": setup.horizon.as_secs_f64().round() as u64,
        "scenario": FAULT.name(),
        "thetas_permille": THETAS,
        "bursts": BURSTS,
        "mean_tps": 200,
        "cells": artefact_cells,
        "monotonicity": monotone_rows,
        "monotone_chains": monotone_chains,
    });
    opts.write_json("contention/contention.json", &artefact);
    opts.write_text("contention/contention.csv", &csv);
}
