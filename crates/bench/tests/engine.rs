//! Integration tests for the campaign engine: parallel execution must
//! be observationally identical to serial execution, and the on-disk
//! cache must replay runs bit-for-bit without re-simulating.

use std::fs;
use std::path::PathBuf;

use stabl::report::ScenarioReport;
use stabl::{report_from_runs, Chain, PaperSetup, ScenarioKind};
use stabl_bench::{CampaignCell, Engine, Job};

/// The two fastest chains are enough to exercise the matrix.
const CHAINS: [Chain; 2] = [Chain::Redbelly, Chain::Solana];

fn quick_setup() -> PaperSetup {
    PaperSetup::quick(20, 42)
}

/// Expands and assembles the campaign for a chain subset, mirroring
/// `engine::run_campaign`.
fn campaign(engine: &Engine, setup: &PaperSetup) -> Vec<ScenarioReport> {
    let cells: Vec<CampaignCell> = stabl_bench::engine::campaign_cells()
        .into_iter()
        .filter(|cell| CHAINS.contains(&cell.chain))
        .collect();
    let per_chain = stabl_bench::engine::CELLS_PER_CHAIN;
    let results = engine.run(cells.iter().map(|cell| cell.job(setup)).collect());
    let mut reports = Vec::new();
    for (&chain, cells) in CHAINS.iter().zip(results.chunks(per_chain)) {
        let [base, base_8vcpu, altered @ ..] = cells else {
            unreachable!("both baselines precede the altered cells");
        };
        for (kind, altered) in ScenarioKind::ALTERED.into_iter().zip(altered) {
            let reference = if kind == ScenarioKind::SecureClient {
                base_8vcpu
            } else {
                base
            };
            reports.push(report_from_runs(chain, kind, reference, altered));
        }
    }
    reports
}

/// A unique scratch directory for one test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("stabl-engine-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn parallel_and_serial_campaigns_are_identical() {
    let setup = quick_setup();
    let serial = campaign(&Engine::new(1, None), &setup);
    let parallel = campaign(&Engine::new(4, None), &setup);
    assert_eq!(serial.len(), CHAINS.len() * ScenarioKind::ALTERED.len());
    // ScenarioReport carries floats end to end; the runs are
    // deterministic, so the reports must match exactly, not loosely.
    assert_eq!(serial, parallel);
}

#[test]
fn warm_cache_replays_without_running() {
    let scratch = Scratch::new("warm");
    let setup = quick_setup();
    let engine = Engine::new(2, Some(scratch.0.clone()));
    let jobs = || {
        CHAINS
            .iter()
            .map(|&chain| Job::scenario(&setup, chain, ScenarioKind::Crash))
            .collect::<Vec<Job>>()
    };
    let (cold, cold_summary) = engine.run_with_telemetry(jobs());
    assert_eq!(cold_summary.cache_hits, 0);
    assert_eq!(cold_summary.executed, CHAINS.len() as u64);

    let (warm, warm_summary) = engine.run_with_telemetry(jobs());
    assert_eq!(
        warm_summary.cache_hits,
        CHAINS.len() as u64,
        "second pass must be 100% cached"
    );
    assert_eq!(warm_summary.executed, 0);
    for (fresh, cached) in cold.iter().zip(&warm) {
        assert_eq!(fresh.latencies, cached.latencies);
        assert_eq!(fresh.commit_times, cached.commit_times);
        assert_eq!(fresh.submitted, cached.submitted);
        assert_eq!(fresh.unresolved, cached.unresolved);
        assert_eq!(fresh.lost_liveness, cached.lost_liveness);
        assert_eq!(fresh.panics, cached.panics);
        assert_eq!(fresh.stats, cached.stats);
        assert_eq!(fresh.horizon, cached.horizon);
    }
    // Each cell names its event count, cached or not.
    for ((cold_cell, warm_cell), run) in cold_summary
        .cells
        .iter()
        .zip(&warm_summary.cells)
        .zip(&cold)
    {
        assert!(cold_cell.events > 0, "{}", cold_cell.label);
        assert_eq!(cold_cell.events, run.stats.events_processed);
        assert_eq!(warm_cell.events, cold_cell.events, "{}", warm_cell.label);
    }
}

#[test]
fn corrupt_cache_entries_are_recomputed() {
    let scratch = Scratch::new("corrupt");
    let setup = quick_setup();
    let engine = Engine::new(1, Some(scratch.0.clone()));
    let job = || vec![Job::scenario(&setup, Chain::Solana, ScenarioKind::Baseline)];
    let fresh = engine.run(job());
    // Truncate every cache entry; the engine must fall back to running.
    for entry in fs::read_dir(&scratch.0).expect("cache dir") {
        fs::write(entry.expect("entry").path(), "{not json").expect("corrupt");
    }
    let (recomputed, summary) = engine.run_with_telemetry(job());
    assert_eq!(
        summary.cache_hits, 0,
        "corrupt entries must not count as hits"
    );
    assert_eq!(fresh[0].latencies, recomputed[0].latencies);
}

#[test]
fn no_cache_engine_leaves_no_files() {
    let scratch = Scratch::new("disabled");
    let setup = quick_setup();
    let engine = Engine::new(1, None);
    let _ = engine.run(vec![Job::scenario(
        &setup,
        Chain::Redbelly,
        ScenarioKind::Baseline,
    )]);
    assert!(!scratch.0.exists());
}
