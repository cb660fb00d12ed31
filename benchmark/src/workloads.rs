//! The four workloads: how each builds its inputs from the seed, what
//! one timed pass runs, and what its outputs must satisfy.
//!
//! Every workload drives the campaign stack the way its users do — the
//! `stabl-bench` [`Engine`], `run_campaign`'s cell matrix and report
//! assembly, `EngineEval` under `Strategy::Annealing` — and times those
//! public calls from outside. The program under test receives only the
//! generated [`PaperSetup`] / [`RunConfig`] inputs, never the seed.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde_json::json;
use stabl::report::{ScenarioReport, SensitivityRecord};
use stabl::{report_from_runs, Chain, PaperSetup, RunConfig, RunResult, ScenarioKind};
use stabl_adversary::{
    Evaluate, Fitness, Genome, Objective, SearchConfig, SearchOutcome, SearchSpace, Strategy,
};
use stabl_bench::engine::{campaign_cells, reports_from_campaign_results};
use stabl_bench::{Engine, EngineEval, EngineTelemetry, Job};
use stabl_sim::SimStats;
use stabl_types::{Hash32, Sha256};

use crate::host;
use crate::trace::{SpanId, Tracer};

/// Simulated horizon of the two fig. 3 workloads and the adversary
/// search. The paper's runs last 400 s and cost 49 s of host time per
/// campaign here; the driver allows about 30 s per run, set-up included.
/// 90 s is the shortest horizon at which the campaign keeps the paper's
/// shape at the default seed — Avalanche and Solana, and only they, lose
/// liveness under the transient failure and the partition — so the
/// faulted cells cost what they cost at full length relative to their
/// baselines (Solana partition 3x its baseline, Avalanche transient and
/// partition above theirs).
pub const CAMPAIGN_HORIZON_S: u64 = 90;

/// Horizon of the `scale_n40` cells: dense O(n^2) bursts make a
/// simulated second cost an order of magnitude more at n = 40.
pub const SCALE_HORIZON_S: u64 = 20;

/// Validators in the `scale_n40` cells.
pub const SCALE_N: usize = 40;

/// Horizon of the warm-up pass that is part of every set-up.
const WARMUP_HORIZON_S: u64 = 10;

/// Candidate evaluations per chain in `adversary_search`.
pub const SEARCH_BUDGET: usize = 8;

/// Seed of the search's own random stream. It stays fixed while `--seed`
/// drives the simulations, so every seed evaluates nearly the same
/// schedules and host time stays comparable across seeds: a schedule's
/// cost varies threefold with what it injects.
const SEARCH_SEED: u64 = 42;

/// The chains searched: Redbelly is kernel-bound, Avalanche is
/// handler-bound and has the slowest faulted cells.
pub const SEARCH_CHAINS: [Chain; 2] = [Chain::Redbelly, Chain::Avalanche];

/// The chains scaled to n = 40. Avalanche is left out: its model loses
/// liveness fault-free at n >= 16 (the committed `ext_scale_sweep.json`
/// score is `null`), so timing it would measure a backlog pathology; its
/// slow faulted cells are already in `fig3_cold`.
pub const SCALE_CHAINS: [Chain; 4] = [
    Chain::Algorand,
    Chain::Aptos,
    Chain::Redbelly,
    Chain::Solana,
];

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fig3Cold,
    Fig3Warm,
    AdversarySearch,
    ScaleN40,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Fig3Cold,
        Kind::Fig3Warm,
        Kind::AdversarySearch,
        Kind::ScaleN40,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig3Cold => "fig3_cold",
            Kind::Fig3Warm => "fig3_warm",
            Kind::AdversarySearch => "adversary_search",
            Kind::ScaleN40 => "scale_n40",
        }
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Kind::Fig3Cold => "the 30-cell fig. 3 campaign run cold on one worker: chain handlers, kernel and harness do the work, cache and serde none",
            Kind::Fig3Warm => "the same campaign replayed from a warm cache: cache reads, JSON decode and report folding do the work, the simulator none",
            Kind::AdversarySearch => "annealing search on Redbelly then Avalanche, no cache: every evaluation re-simulates the prefix it shares with the baseline",
            Kind::ScaleN40 => "baseline and crash cells of four chains at n = 40: dense O(n^2) bursts where agenda, routing and the message slab dominate",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn horizon_s(self) -> u64 {
        match self {
            Kind::ScaleN40 => SCALE_HORIZON_S,
            _ => CAMPAIGN_HORIZON_S,
        }
    }

    /// Passes a traced run makes traced, and as many again untraced.
    pub fn traced_passes(self) -> usize {
        match self {
            Kind::Fig3Warm => 10,
            _ => 2,
        }
    }
}

/// One simulation run a workload schedules on the engine.
struct Cell {
    chain: Chain,
    kind: ScenarioKind,
    cores: f64,
    config: RunConfig,
    label: String,
    material: String,
}

fn scenario_suffix(kind: ScenarioKind, cores: f64) -> &'static str {
    match (kind, cores == 1.0) {
        (ScenarioKind::Baseline, false) => "baseline2x",
        _ => kind.name(),
    }
}

/// Host instants of the cells the engine executed, by cell index, taken
/// on the worker threads of a traced pass.
type CellTimings = Mutex<Vec<(usize, Instant, Instant)>>;

impl Cell {
    /// Takes label and cache-key material from the job the engine's own
    /// constructors build, so cache entries are the ones users get.
    fn new(chain: Chain, kind: ScenarioKind, cores: f64, setup: &PaperSetup) -> Cell {
        let config = setup.run_config(chain, kind);
        let job = Job::config_with_cpu("", chain, config.clone(), cores);
        Cell {
            chain,
            kind,
            cores,
            label: format!("{}/{}", chain.name(), scenario_suffix(kind, cores)),
            material: job.material().to_owned(),
            config,
        }
    }

    /// Suffix of the per-chain layer metrics this cell feeds.
    fn scenario(&self) -> &'static str {
        scenario_suffix(self.kind, self.cores)
    }

    /// The cell as an engine job; with `timings`, the job also notes
    /// when its simulation started and ended.
    fn job(&self, index: usize, timings: Option<&Arc<CellTimings>>) -> Job {
        let (chain, cores, config) = (self.chain, self.cores, self.config.clone());
        let timings = timings.cloned();
        Job::new(self.label.clone(), self.material.clone(), move || {
            let started = Instant::now();
            let result = chain.run_with_cpu(&config, cores);
            if let Some(timings) = &timings {
                let ended = Instant::now();
                timings
                    .lock()
                    .expect("no holder of the timing lock can panic")
                    .push((index, started, ended));
            }
            result
        })
    }
}

/// Kernel counters summed over the runs of one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub events_processed: u64,
    pub messages_sent: u64,
    pub messages_delivered: u64,
    pub messages_dropped: u64,
    pub timers_fired: u64,
    pub timers_stale: u64,
}

impl Counters {
    fn absorb(&mut self, stats: &SimStats) {
        self.events_processed += stats.events_processed;
        self.messages_sent += stats.messages_sent;
        self.messages_delivered += stats.messages_delivered;
        self.messages_dropped += stats.messages_dropped_dead
            + stats.messages_dropped_partition
            + stats.messages_dropped_link;
        self.timers_fired += stats.timers_fired;
        self.timers_stale += stats.timers_stale;
    }
}

/// One executed simulation of a traced pass.
#[derive(Clone, Debug)]
pub struct CellSample {
    pub chain: Chain,
    /// `None` for an adversary evaluation: it matches no fixed scenario.
    pub scenario: Option<&'static str>,
    pub wall_s: f64,
    pub events: u64,
}

/// How a multi-cell engine batch used its worker pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolUse {
    /// `EngineTelemetry::utilization`.
    pub busy_share: f64,
    /// Sum of cell wall times over the batch's wall time.
    pub speedup: f64,
}

impl PoolUse {
    fn of(telemetry: &EngineTelemetry) -> PoolUse {
        let busy_ms: u64 = telemetry.cells.iter().map(|c| c.wall_ms).sum();
        PoolUse {
            busy_share: telemetry.utilization,
            speedup: busy_ms as f64 / telemetry.wall_ms.max(1) as f64,
        }
    }
}

/// What one timed pass did and produced.
pub struct Pass {
    /// Host seconds, first job submitted to reports assembled.
    pub wall_s: f64,
    /// SHA-256 over the serialised run results in cell order; `None`
    /// when the pass skipped it (most `fig3_warm` replays).
    pub digest: Option<Hash32>,
    /// The serialised reports, compared byte for byte between passes.
    pub reports: String,
    /// Invariants the outputs broke, one line each.
    pub violations: Vec<String>,
    /// What the outputs show that is worth printing and is no failure.
    pub info: Vec<String>,
    pub counters: Counters,
    pub cache_hits: u64,
    pub executed: u64,
    pub pool: PoolUse,
    /// Executed simulations with their wall times (traced passes only).
    pub cells: Vec<CellSample>,
    /// Mean wall of the baseline runs the adversary evaluators made.
    pub baseline_wall_s: f64,
}

impl Pass {
    /// Summed wall time of the simulations a traced pass executed.
    pub fn cell_seconds(&self) -> f64 {
        self.cells.iter().fold(0.0, |sum, c| sum + c.wall_s)
    }
}

/// A workload ready to run timed passes: its inputs are generated and
/// its set-up work is done.
pub struct Prepared {
    kind: Kind,
    setup: PaperSetup,
    cells: Vec<Cell>,
    engine: Engine,
    spaces: Vec<(Chain, SearchSpace)>,
    search: SearchConfig,
    /// `fig3_warm`: the populated cache and what populating it produced.
    warm: Option<WarmCache>,
}

struct WarmCache {
    dir: PathBuf,
    reports: String,
    digest: Hash32,
    pool: PoolUse,
}

impl Drop for WarmCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything before the first timed pass: generate the inputs from the
/// seed, build the engine, and warm the process up with one pass of the
/// same workload at a 10 s horizon — or, on `fig3_warm`, populate a
/// fresh cache directory under `out_dir` with all hardware threads.
pub fn set_up(kind: Kind, seed: u64, out_dir: &Path, tracer: &mut Tracer) -> Prepared {
    let span = tracer.begin("setup", None);
    if kind != Kind::Fig3Warm {
        let warm_up = Prepared::new(kind, seed, WARMUP_HORIZON_S, out_dir, tracer, span);
        warm_up.pass(&mut Tracer::new(false), None, false);
    }
    let prepared = Prepared::new(kind, seed, kind.horizon_s(), out_dir, tracer, span);
    tracer.end(span);
    prepared
}

impl Prepared {
    fn new(
        kind: Kind,
        seed: u64,
        horizon_s: u64,
        out_dir: &Path,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> Prepared {
        let mut setup = PaperSetup::quick(horizon_s, seed);
        let mut cells = Vec::new();
        let mut spaces = Vec::new();
        match kind {
            Kind::Fig3Cold | Kind::Fig3Warm => {
                cells = campaign_cells()
                    .iter()
                    .map(|c| Cell::new(c.chain, c.kind, c.cores, &setup))
                    .collect();
            }
            Kind::AdversarySearch => {
                spaces = SEARCH_CHAINS
                    .iter()
                    .map(|&chain| (chain, SearchSpace::paper(&setup, chain)))
                    .collect();
            }
            Kind::ScaleN40 => {
                setup.n = SCALE_N;
                for chain in SCALE_CHAINS {
                    for kind in [ScenarioKind::Baseline, ScenarioKind::Crash] {
                        cells.push(Cell::new(chain, kind, 1.0, &setup));
                    }
                }
            }
        }
        let mut prepared = Prepared {
            kind,
            setup,
            cells,
            engine: Engine::new(1, None),
            spaces,
            search: SearchConfig {
                seed: SEARCH_SEED,
                budget: SEARCH_BUDGET,
                objective: Objective::Sensitivity,
            },
            warm: None,
        };
        if kind == Kind::Fig3Warm {
            prepared.warm = Some(prepared.populate(out_dir, tracer, parent));
        }
        prepared
    }

    /// Operations one pass attempts: cells, evaluations (baselines
    /// included) or, on `fig3_warm`, the one replay.
    pub fn ops_per_pass(&self) -> usize {
        match self.kind {
            Kind::Fig3Warm => 1,
            _ => self.runs_per_pass(),
        }
    }

    /// Simulation runs one pass delivers the results of.
    pub fn runs_per_pass(&self) -> usize {
        match self.kind {
            Kind::AdversarySearch => self.spaces.len() * (1 + SEARCH_BUDGET),
            _ => self.cells.len(),
        }
    }

    /// Simulated seconds one pass delivers: the sum of its runs'
    /// horizons, a constant of the workload — not seconds re-simulated.
    pub fn sim_seconds_per_pass(&self) -> f64 {
        self.runs_per_pass() as f64 * self.setup.horizon.as_micros() as f64 / 1e6
    }

    /// `fig3_warm` set-up: the campaign into a fresh cache directory,
    /// cold, on every hardware thread. Exercises the cache *stores*.
    fn populate(&self, out_dir: &Path, tracer: &mut Tracer, parent: Option<SpanId>) -> WarmCache {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = out_dir.join(format!(
            "cache-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let span = tracer.begin("cache.populate", parent);
        let engine = Engine::new(host::nproc(), Some(dir.clone()));
        let (results, telemetry, _) = self.run_cells(&engine, tracer, span);
        tracer.end(span);
        WarmCache {
            dir,
            reports: serialise_reports(&self.assemble(&results)),
            digest: digest_of(&results),
            pool: PoolUse::of(&telemetry),
        }
    }

    /// Runs every cell on `engine`; a traced pass records one `cell`
    /// span per executed simulation under an `engine.run` span.
    fn run_cells(
        &self,
        engine: &Engine,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> (Vec<RunResult>, EngineTelemetry, Vec<CellSample>) {
        let timings = tracer
            .enabled()
            .then(|| Arc::new(CellTimings::new(Vec::new())));
        let span = tracer.begin("engine.run", parent);
        let jobs = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, cell)| cell.job(i, timings.as_ref()))
            .collect();
        let (results, telemetry) = engine.run_with_telemetry(jobs);
        tracer.end(span);
        let mut samples = Vec::new();
        if let Some(timings) = timings {
            let mut timings = timings
                .lock()
                .expect("no holder of the timing lock can panic");
            timings.sort_by_key(|&(index, ..)| index);
            for &(index, started, ended) in timings.iter() {
                let cell = &self.cells[index];
                tracer.record(&format!("cell {}", cell.label), span, started, ended);
                samples.push(CellSample {
                    chain: cell.chain,
                    scenario: Some(cell.scenario()),
                    wall_s: (ended - started).as_secs_f64(),
                    events: results[index].stats.events_processed,
                });
            }
        }
        (results, telemetry, samples)
    }

    /// The reports a user of these cells reads.
    fn assemble(&self, results: &[RunResult]) -> Vec<ScenarioReport> {
        match self.kind {
            Kind::ScaleN40 => SCALE_CHAINS
                .iter()
                .zip(results.chunks(2))
                .map(|(&chain, pair)| {
                    report_from_runs(chain, ScenarioKind::Crash, &pair[0], &pair[1])
                })
                .collect(),
            _ => reports_from_campaign_results(results),
        }
    }

    /// One timed pass. `with_digest` asks for the (untimed) digest of the
    /// serialised results; `fig3_warm` skips it on most replays because
    /// it costs as much as the replay itself.
    pub fn pass(&self, tracer: &mut Tracer, parent: Option<SpanId>, with_digest: bool) -> Pass {
        let span = tracer.begin("pass", parent);
        let pass = match self.kind {
            Kind::AdversarySearch => self.search_pass(tracer, span),
            _ => self.engine_pass(tracer, span, with_digest),
        };
        tracer.end(span);
        pass
    }

    fn engine_pass(&self, tracer: &mut Tracer, span: Option<SpanId>, with_digest: bool) -> Pass {
        let started = Instant::now();
        let replay_engine = self.warm.as_ref().map(|warm| {
            let new = tracer.begin("engine.new", span);
            let engine = Engine::new(1, Some(warm.dir.clone()));
            tracer.end(new);
            engine
        });
        let engine = replay_engine.as_ref().unwrap_or(&self.engine);
        let (results, telemetry, cells) = self.run_cells(engine, tracer, span);
        let report = tracer.begin("report", span);
        let reports = self.assemble(&results);
        tracer.end(report);
        let wall_s = started.elapsed().as_secs_f64();

        // Everything below checks the outputs and is not timed.
        let (mut violations, info) = self.check_cells(&results, &reports);
        let reports = serialise_reports(&reports);
        let digest = with_digest.then(|| digest_of(&results));
        if let Some(warm) = &self.warm {
            if telemetry.cache_hits as usize != self.cells.len() {
                violations.push(format!(
                    "warm replay hit the cache on {} of {} cells",
                    telemetry.cache_hits,
                    self.cells.len()
                ));
            }
            if reports != warm.reports {
                violations.push("warm reports differ from the cold population's".to_owned());
            }
            if digest.is_some_and(|d| d != warm.digest) {
                violations.push("warm results differ from the cold population's".to_owned());
            }
        }
        let mut counters = Counters::default();
        if telemetry.executed > 0 {
            results.iter().for_each(|r| counters.absorb(&r.stats));
        }
        Pass {
            wall_s,
            digest,
            reports,
            violations,
            info,
            counters,
            cache_hits: telemetry.cache_hits,
            executed: telemetry.executed,
            pool: self
                .warm
                .as_ref()
                .map_or_else(|| PoolUse::of(&telemetry), |w| w.pool),
            cells,
            baseline_wall_s: 0.0,
        }
    }

    /// Output invariants of the engine workloads that hold for any seed,
    /// as (violations, info): every baseline passes [`check_baseline`],
    /// and at n = 10 every crash score is finite (at n = 40 a 20 s horizon
    /// leaves Aptos too little time to recover from 13 crashes).
    fn check_cells(
        &self,
        results: &[RunResult],
        reports: &[ScenarioReport],
    ) -> (Vec<String>, Vec<String>) {
        let mut violations = Vec::new();
        let mut info = Vec::new();
        for (cell, result) in self.cells.iter().zip(results) {
            if cell.kind == ScenarioKind::Baseline {
                check_baseline(&cell.label, cell.chain, result, &mut violations, &mut info);
            }
        }
        for report in reports {
            let crash_at_n10 = self.kind != Kind::ScaleN40 && report.kind == ScenarioKind::Crash;
            if crash_at_n10 && report.sensitivity.score().is_none() {
                violations.push(format!("{}: crash score is not finite", report.chain));
            }
        }
        (violations, info)
    }

    fn search_pass(&self, tracer: &mut Tracer, span: Option<SpanId>) -> Pass {
        struct Search {
            chain: Chain,
            outcome: SearchOutcome,
            baseline: RunResult,
            baseline_wall_s: f64,
            /// Traced passes only: each candidate with its wall time.
            evals: Vec<(Genome, f64)>,
        }
        let started = Instant::now();
        let mut searches = Vec::new();
        for (chain, space) in &self.spaces {
            let search = tracer.begin(&format!("search {}", chain.name()), span);
            let baseline_started = Instant::now();
            let mut eval = EngineEval::new(&self.engine, &self.setup, *chain);
            let baseline_ended = Instant::now();
            tracer.record("eval baseline", search, baseline_started, baseline_ended);
            let mut evals = Vec::new();
            let outcome = if tracer.enabled() {
                let mut timed = TimedEval {
                    inner: &mut eval,
                    evals: Vec::new(),
                };
                let outcome = Strategy::Annealing.search(space, &mut timed, &self.search);
                for (genome, eval_started, eval_ended) in timed.evals {
                    tracer.record("eval", search, eval_started, eval_ended);
                    evals.push((genome, (eval_ended - eval_started).as_secs_f64()));
                }
                outcome
            } else {
                Strategy::Annealing.search(space, &mut eval, &self.search)
            };
            tracer.end(search);
            searches.push(Search {
                chain: *chain,
                outcome,
                baseline: eval.baseline().clone(),
                baseline_wall_s: (baseline_ended - baseline_started).as_secs_f64(),
                evals,
            });
        }
        let wall_s = started.elapsed().as_secs_f64();

        // Untimed from here: check, digest, and — for a traced pass —
        // re-simulate each evaluated genome to read its kernel counters,
        // which `EngineEval` folds into a fitness and drops.
        let mut violations = Vec::new();
        let mut info = Vec::new();
        let mut counters = Counters::default();
        let mut cells = Vec::new();
        let mut hasher = Sha256::new();
        let mut reports = String::new();
        for search in &searches {
            let Search {
                chain,
                outcome,
                baseline,
                ..
            } = search;
            if outcome.evals != SEARCH_BUDGET {
                violations.push(format!(
                    "{chain}: search spent {} of {SEARCH_BUDGET} evaluations",
                    outcome.evals
                ));
            }
            let label = format!("{chain}/search");
            check_baseline(&label, *chain, baseline, &mut violations, &mut info);
            counters.absorb(&baseline.stats);
            if tracer.enabled() {
                cells.push(CellSample {
                    chain: *chain,
                    scenario: Some("baseline"),
                    wall_s: search.baseline_wall_s,
                    events: baseline.stats.events_processed,
                });
            }
            for (genome, wall_s) in &search.evals {
                let mut config = self.setup.run_config(*chain, ScenarioKind::Baseline);
                config.faults = genome.schedule();
                config.byzantine = genome.byzantine_spec();
                let stats = chain.run(&config).stats;
                counters.absorb(&stats);
                cells.push(CellSample {
                    chain: *chain,
                    scenario: None,
                    wall_s: *wall_s,
                    events: stats.events_processed,
                });
            }
            hasher.update(serialise(baseline).as_bytes());
            let outcome = serialise(outcome);
            hasher.update(outcome.as_bytes());
            reports.push_str(&outcome);
            reports.push('\n');
        }
        let baseline_wall_s =
            searches.iter().map(|s| s.baseline_wall_s).sum::<f64>() / searches.len() as f64;
        Pass {
            wall_s,
            digest: Some(hasher.finalize()),
            reports,
            violations,
            info,
            counters,
            cache_hits: 0,
            executed: self.runs_per_pass() as u64,
            pool: PoolUse {
                busy_share: 1.0,
                speedup: 1.0,
            },
            cells,
            baseline_wall_s,
        }
    }
}

/// Times each evaluation of a search from outside [`EngineEval`] and
/// keeps the genomes it was asked about.
struct TimedEval<'a, 'e> {
    inner: &'a mut EngineEval<'e>,
    evals: Vec<(Genome, Instant, Instant)>,
}

impl Evaluate for TimedEval<'_, '_> {
    fn eval_batch(&mut self, genomes: &[Genome]) -> Vec<Fitness> {
        genomes
            .iter()
            .map(|genome| {
                let started = Instant::now();
                let fitness = self.inner.eval(genome);
                self.evals.push((genome.clone(), started, Instant::now()));
                fitness
            })
            .collect()
    }
}

/// Checks one fault-free run. For any seed it is panic-free, stays live
/// and commits its load (the last fraction of a percent may still be in
/// flight at the horizon) — except that Avalanche's model stalls
/// fault-free at about one seed in 300 at n = 10 (seed 303 leaves 10 314
/// of 17 000 transactions unresolved), as it does at every seed from
/// n = 16 up. A workload must not fail on a seed it has not seen, so
/// that stall is printed and not failed.
fn check_baseline(
    label: &str,
    chain: Chain,
    result: &RunResult,
    violations: &mut Vec<String>,
    info: &mut Vec<String>,
) {
    if !result.panics.is_empty() {
        violations.push(format!(
            "{label}: baseline had {} panics",
            result.panics.len()
        ));
    }
    if result.lost_liveness || result.commit_ratio() < 0.99 {
        let stall = format!(
            "{label}: baseline left {} of {} unresolved",
            result.unresolved, result.submitted
        );
        if chain == Chain::Avalanche {
            info.push(format!("stalled fault-free {stall}"));
        } else {
            violations.push(stall);
        }
    }
}

/// Compact JSON of `value`.
pub fn serialise<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("the vendored serde_json cannot fail to serialise")
}

/// SHA-256 over the serialised results, in cell order. A change that
/// only makes the simulator faster must leave it identical.
pub fn digest_of(results: &[RunResult]) -> Hash32 {
    let mut hasher = Sha256::new();
    for result in results {
        hasher.update(serialise(result).as_bytes());
    }
    hasher.finalize()
}

/// The reports as the JSON rows `fig3_sensitivity` writes.
fn serialise_reports(reports: &[ScenarioReport]) -> String {
    let rows: Vec<serde_json::Value> = reports
        .iter()
        .map(|r| {
            json!({
                "chain": r.chain.name(),
                "scenario": r.kind.name(),
                "sensitivity": SensitivityRecord::from(r.sensitivity),
                "baseline": r.baseline,
                "altered": r.altered,
            })
        })
        .collect();
    serialise(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_digest_is_stable_across_two_runs_of_one_cell() {
        let setup = PaperSetup::quick(10, 7);
        let run = || setup.run(Chain::Aptos, ScenarioKind::Crash);
        assert_eq!(digest_of(&[run()]), digest_of(&[run()]));
        let other = PaperSetup::quick(10, 8).run(Chain::Aptos, ScenarioKind::Crash);
        assert_ne!(digest_of(&[run()]), digest_of(&[other]));
    }

    #[test]
    fn a_fault_free_stall_fails_every_chain_but_avalanche() {
        let mut result = PaperSetup::quick(40, 7).run(Chain::Aptos, ScenarioKind::Baseline);
        let check = |chain, result: &RunResult| {
            let (mut violations, mut info) = (Vec::new(), Vec::new());
            check_baseline("cell", chain, result, &mut violations, &mut info);
            (violations.len(), info.len())
        };
        assert_eq!(check(Chain::Aptos, &result), (0, 0));
        result.unresolved = result.submitted / 2;
        assert_eq!(check(Chain::Aptos, &result), (1, 0));
        assert_eq!(check(Chain::Avalanche, &result), (0, 1));
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("fig3"), None);
    }

    #[test]
    fn delivered_work_is_a_constant_of_the_workload() {
        let out = std::env::temp_dir();
        let mut tracer = Tracer::new(false);
        let cold = Prepared::new(Kind::Fig3Cold, 1, 90, &out, &mut tracer, None);
        assert_eq!(cold.runs_per_pass(), 30);
        assert_eq!(cold.sim_seconds_per_pass(), 2700.0);
        let search = Prepared::new(Kind::AdversarySearch, 1, 90, &out, &mut tracer, None);
        assert_eq!(search.ops_per_pass(), 18);
        let scale = Prepared::new(Kind::ScaleN40, 1, 20, &out, &mut tracer, None);
        assert_eq!(scale.runs_per_pass(), 8);
        assert_eq!(scale.sim_seconds_per_pass(), 160.0);
    }
}
