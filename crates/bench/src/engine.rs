//! The campaign engine: expands a [`PaperSetup`] into an explicit matrix
//! of run cells, executes the cells on a bounded worker pool and
//! memoises every cell in a content-addressed on-disk cache.
//!
//! Every cell is one deterministic simulation run (same seed ⇒
//! bit-identical [`RunResult`]), which makes the campaign embarrassingly
//! parallel *and* safely cacheable:
//!
//! * **Parallelism** — [`Engine::run`] pulls cells off a shared index
//!   with `--jobs N` scoped worker threads; results come back in
//!   submission order, so report assembly is deterministic regardless
//!   of completion order.
//! * **Groups** — a sensitivity score is always a baseline and the
//!   altered runs compared against it, so campaigns hand the engine
//!   [`Group`]s of jobs ([`Engine::run_groups`]) and get the results
//!   back in the same groups; nobody computes slice indices.
//! * **Memoisation** — each cell is keyed by the SHA-256 of its full
//!   [`RunConfig`] (Debug form), its CPU-scaling factor, a
//!   caller-supplied salt for non-config inputs (custom protocol
//!   configurations) and the code version (`git describe`). A warm
//!   cache replays a campaign without running a single simulation;
//!   `--no-cache` forces recomputation.
//!
//! Cached artefacts are bit-identical to fresh ones: floats are written
//! in shortest round-trip form, so a [`RunResult`] survives the JSON
//! round trip exactly.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use stabl::report::ScenarioReport;
use stabl::{report_from_runs, Chain, PaperSetup, RunConfig, RunResult, ScenarioKind};
use stabl_types::Sha256;

/// Bumped whenever the serialised [`RunResult`] layout changes, so stale
/// cache entries miss instead of misparsing. v2: `RunResult` gained
/// retry counters; `RunConfig` gained the adversity surface (fault
/// schedules, Byzantine specs, retry policies). v3: `RunResult` gained
/// the per-stage latency decomposition (`stages`); `SimStats` gained
/// `dropped_trace_lines`. v4: `RunSummary` quantiles moved onto the
/// `stabl-stats` quantile-sketch grid and the replication artifacts
/// (`ReplicatedCampaign` and friends) joined the serialised surface.
/// v5: the adversary-search types (`Genome`, `Fitness`, `CorpusEntry`
/// and friends) joined the serialised surface, and `FaultError` grew
/// window-validity variants that tightened which schedules ever reach a
/// run. v6: the diagnosis types (`MetricsTimeline`, `BlameTable`,
/// `LivenessPostMortem`, `Diagnosis` and friends) joined the serialised
/// surface, `SimEvent` gained the `Gauge` variant (`EventCounters`
/// gained `gauge_samples`), `RunSummary` gained `dropped_trace_lines`,
/// and `GateReport` gained the optional utilisation summary. v7: the
/// production workload model (`TrafficModel`, `ArrivalProcess`,
/// `ConflictProfile`) joined the serialised surface via `RunConfig`'s
/// workload spec, and `SimStats` gained the four contention counters
/// (`speculative_reexecutions`, `conflict_aborts`, `pool_evictions`,
/// `pool_replacements`).
pub const CACHE_SCHEMA_VERSION: u32 = 7;

// The cache-schema manifest: every type with a `Serialize` impl in the
// `RunResult`-reachable crates must be listed here, and `stabl-lint`
// (rules S-001/S-002, run by `cargo test`) fails when the list drifts
// from the sources. Adding a name here is the reviewed moment to ask whether
// CACHE_SCHEMA_VERSION needs a bump.
// The kernel's internal calendar-queue types (`Agenda`, `MsgArena`,
// `TimerRegistry`) carry no `Serialize` impls either — the serialised
// surface (`SimStats`, `RunResult`, …) was unchanged by the kernel
// rewrite, which is why that refactor needed no version bump.
// stabl-lint: cache-schema: RunResult, RunSummary, SensitivityRecord, RadarRow
// stabl-lint: cache-schema: LatencyHistogram, StageLatencies
// stabl-lint: cache-schema: CellTelemetry, EngineTelemetry
// stabl-lint: cache-schema: RetryPolicy, FaultAction, FaultSchedule
// stabl-lint: cache-schema: SimTime, SimDuration, NodeId, PanicRecord, SimStats
// stabl-lint: cache-schema: SimEvent, TimedEvent, EventCounters
// stabl-lint: cache-schema: LinkFault, ByzantineBehavior, ByzantineSpec
// stabl-lint: cache-schema: MeanVar, QuantileSketch, SeedSequence
// stabl-lint: cache-schema: ConfidenceInterval, CellObservation, ReplicateScore
// stabl-lint: cache-schema: MetricCi, ReplicatedCell, ReplicatedCampaign
// stabl-lint: cache-schema: Genome, ByzGene, Fitness, Objective
// stabl-lint: cache-schema: Strategy, SearchConfig, SearchTrace, TraceStep
// stabl-lint: cache-schema: SearchOutcome, ShrinkOutcome, CorpusEntry, ScoreCi
// stabl-lint: cache-schema: FrameCounts, GaugeSeries, MetricsFrame, MetricsTimeline
// stabl-lint: cache-schema: BlameCause, TxBlame, StageSplit, BlameTable
// stabl-lint: cache-schema: FaultDescription, StalledPhase, LivenessPostMortem
// stabl-lint: cache-schema: Diagnosis

/// One simulation run the engine can schedule: a display label, the
/// material its cache key is derived from, and the work itself.
pub struct Job {
    label: String,
    material: String,
    run: Box<dyn Fn() -> RunResult + Send + Sync>,
}

impl Job {
    /// Wraps an arbitrary runnable cell.
    ///
    /// `material` must capture *every* input that influences the result
    /// (the engine adds the code version and schema version itself).
    pub fn new(
        label: impl Into<String>,
        material: String,
        run: impl Fn() -> RunResult + Send + Sync + 'static,
    ) -> Job {
        Job {
            label: label.into(),
            material,
            run: Box::new(run),
        }
    }

    /// A run of `chain` under `config` with its default CPU budget.
    pub fn config(label: impl Into<String>, chain: Chain, config: RunConfig) -> Job {
        Job::config_with_cpu(label, chain, config, 1.0)
    }

    /// A run of `chain` under `config` with `cores` times the default
    /// CPU budget (the paper's doubled-vCPU secure-client machines).
    pub fn config_with_cpu(
        label: impl Into<String>,
        chain: Chain,
        config: RunConfig,
        cores: f64,
    ) -> Job {
        let material = format!("chain={chain:?}|cores={cores:?}|{config:?}");
        Job::new(label, material, move || chain.run_with_cpu(&config, cores))
    }

    /// A run with inputs beyond the [`RunConfig`] — a custom protocol
    /// configuration, for instance. `salt` must describe those extra
    /// inputs (typically their `Debug` form); the closure receives the
    /// config back when the cell executes.
    pub fn custom(
        label: impl Into<String>,
        config: RunConfig,
        salt: impl Into<String>,
        run: impl Fn(&RunConfig) -> RunResult + Send + Sync + 'static,
    ) -> Job {
        let material = format!("salt={}|{config:?}", salt.into());
        Job::new(label, material, move || run(&config))
    }

    /// The scenario run [`PaperSetup::run`] would execute.
    pub fn scenario(setup: &PaperSetup, chain: Chain, kind: ScenarioKind) -> Job {
        let cores = scenario_cores(kind);
        let label = cell_label(chain, kind, cores);
        Job::config_with_cpu(label, chain, setup.run_config(chain, kind), cores)
    }

    /// The reference run [`PaperSetup::run_baseline`] would execute: the
    /// baseline scenario, on the same hardware `kind` runs on.
    pub fn scenario_baseline(setup: &PaperSetup, chain: Chain, kind: ScenarioKind) -> Job {
        let cores = scenario_cores(kind);
        let label = cell_label(chain, ScenarioKind::Baseline, cores);
        Job::config_with_cpu(
            label,
            chain,
            setup.run_config(chain, ScenarioKind::Baseline),
            cores,
        )
    }

    /// The cache-key material (the hashed cell identity, minus the code
    /// version the engine mixes in).
    pub fn material(&self) -> &str {
        &self.material
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("label", &self.label)
            .field("material", &self.material)
            .finish_non_exhaustive()
    }
}

/// The CPU-scaling factor a scenario runs with: the secure-client
/// experiment (and its dedicated baseline) ran on doubled-vCPU machines.
pub fn scenario_cores(kind: ScenarioKind) -> f64 {
    match kind {
        ScenarioKind::SecureClient => 2.0,
        _ => 1.0,
    }
}

fn cell_label(chain: Chain, kind: ScenarioKind, cores: f64) -> String {
    if cores == 1.0 {
        format!("{}/{}", chain.name(), kind.name())
    } else {
        format!("{}/{}@{cores}x", chain.name(), kind.name())
    }
}

/// The content-addressed cache key of a cell: SHA-256 over the schema
/// version, the code version and the cell's key material.
pub fn cache_key(material: &str, code_version: &str) -> String {
    let mut hasher = Sha256::new();
    hasher.update(b"stabl-cell-cache\n");
    hasher.update(CACHE_SCHEMA_VERSION.to_le_bytes().as_slice());
    hasher.update(code_version.as_bytes());
    hasher.update(b"\n");
    hasher.update(material.as_bytes());
    hasher.finalize().to_string()
}

/// How one cell of a batch was answered: from the cache or by actually
/// simulating, and how long that took on its worker.
///
/// Wall-clock numbers are machine-dependent by nature, so telemetry is
/// written to its *own* artefact (`*_telemetry.json`) and never mixed
/// into the determinism-gated campaign JSON.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CellTelemetry {
    /// The cell's display label (`chain/scenario[@cores]`).
    pub label: String,
    /// Whether the cache answered (no simulation ran).
    pub cached: bool,
    /// Time the cell occupied its worker, milliseconds (cache probes
    /// included).
    pub wall_ms: u64,
    /// Simulation events the cell's run processed
    /// (`RunResult.stats.events_processed`), read from the replayed
    /// result on a cache hit: an executed cell costs `wall_ms` / `events`
    /// per event.
    pub events: u64,
}

/// Wall-clock telemetry for one whole [`Engine::run_with_telemetry`]
/// batch: per-cell timings plus pool-level utilisation.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EngineTelemetry {
    /// Per-cell outcomes, in submission order.
    pub cells: Vec<CellTelemetry>,
    /// Cells answered from the cache.
    pub cache_hits: u64,
    /// Cells actually simulated.
    pub executed: u64,
    /// Worker threads used.
    pub workers: u64,
    /// Wall-clock time of the whole batch, milliseconds.
    pub wall_ms: u64,
    /// Fraction of the pool's capacity (`workers × wall_ms`) that was
    /// busy running cells: 1.0 means no worker ever idled, low values
    /// mean the batch was starved by stragglers or too few cells.
    pub utilization: f64,
}

impl EngineTelemetry {
    /// The slowest executed cells, most expensive first — the ones worth
    /// caching, splitting or scheduling early.
    pub fn slowest(&self, top: usize) -> Vec<&CellTelemetry> {
        let mut executed: Vec<&CellTelemetry> = self.cells.iter().filter(|c| !c.cached).collect();
        executed.sort_by(|a, b| b.wall_ms.cmp(&a.wall_ms).then(a.label.cmp(&b.label)));
        executed.truncate(top);
        executed
    }
}

/// Executes [`Job`]s on a bounded worker pool with an optional
/// content-addressed result cache.
#[derive(Clone, Debug)]
pub struct Engine {
    workers: usize,
    cache_dir: Option<PathBuf>,
    code_version: String,
}

impl Engine {
    /// An engine with `workers` threads and an optional cache directory
    /// (`None` disables memoisation).
    pub fn new(workers: usize, cache_dir: Option<PathBuf>) -> Engine {
        Engine {
            workers: workers.max(1),
            cache_dir,
            code_version: code_version(),
        }
    }

    /// The default worker count: one per available hardware thread.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The cache directory, if memoisation is enabled.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// Runs every job and returns the results in submission order.
    pub fn run(&self, jobs: Vec<Job>) -> Vec<RunResult> {
        self.run_with_telemetry(jobs).0
    }

    /// Runs every job, returning results in submission order plus full
    /// wall-clock telemetry (per-cell timings, cache hit/miss, worker
    /// utilisation). Prints per-cell progress lines and a final summary
    /// to stderr.
    pub fn run_with_telemetry(&self, jobs: Vec<Job>) -> (Vec<RunResult>, EngineTelemetry) {
        let total = jobs.len();
        let workers = self.workers.min(total).max(1);
        let width = jobs
            .iter()
            .map(|j| j.label.chars().count())
            .max()
            .unwrap_or(0);
        let started = Instant::now();
        let slots: Vec<OnceLock<(RunResult, bool, u64)>> =
            (0..total).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let job = &jobs[index];
                    let cell_started = Instant::now();
                    let (result, cached) = self.run_one(job);
                    let cell_ms = cell_started.elapsed().as_millis() as u64;
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    let status = if cached {
                        "cached".to_owned()
                    } else {
                        format!("{:.1}s", cell_ms as f64 / 1e3)
                    };
                    eprintln!(
                        "[{finished:>3}/{total}] {:<width$}  {status}",
                        job.label,
                        width = width
                    );
                    assert!(
                        slots[index].set((result, cached, cell_ms)).is_ok(),
                        "cell executed twice"
                    );
                });
            }
        });
        let mut results = Vec::with_capacity(total);
        let mut cells = Vec::with_capacity(total);
        for (slot, job) in slots.into_iter().zip(&jobs) {
            let (result, cached, wall_ms) = slot.into_inner().expect("every cell completed");
            cells.push(CellTelemetry {
                label: job.label.clone(),
                cached,
                wall_ms,
                events: result.stats.events_processed,
            });
            results.push(result);
        }
        let wall_ms = started.elapsed().as_millis() as u64;
        let cache_hits = cells.iter().filter(|c| c.cached).count() as u64;
        let busy_ms: u64 = cells.iter().map(|c| c.wall_ms).sum();
        let capacity_ms = (workers as u64) * wall_ms;
        let telemetry = EngineTelemetry {
            cache_hits,
            executed: total as u64 - cache_hits,
            workers: workers as u64,
            wall_ms,
            utilization: if capacity_ms == 0 {
                1.0
            } else {
                (busy_ms as f64 / capacity_ms as f64).min(1.0)
            },
            cells,
        };
        eprintln!(
            "engine: {} cells in {:.1}s — {} cached, {} executed, {} worker(s), {:.0}% busy",
            total,
            telemetry.wall_ms as f64 / 1e3,
            telemetry.cache_hits,
            telemetry.executed,
            telemetry.workers,
            telemetry.utilization * 100.0,
        );
        (results, telemetry)
    }

    /// Runs every job of every group as one batch (each group's
    /// baseline, then its altered runs) and hands the results back in
    /// the same groups.
    pub fn run_groups(&self, groups: Vec<Group<Job>>) -> Vec<Group<RunResult>> {
        let sizes: Vec<usize> = groups.iter().map(|group| group.altered.len()).collect();
        let jobs = groups
            .into_iter()
            .flat_map(|group| std::iter::once(group.baseline).chain(group.altered))
            .collect();
        let mut results = self.run(jobs).into_iter();
        sizes
            .into_iter()
            .map(|altered| Group {
                baseline: results.next().expect("one result per job"),
                altered: results.by_ref().take(altered).collect(),
            })
            .collect()
    }

    /// Runs (or replays) one job; the flag reports a cache hit.
    fn run_one(&self, job: &Job) -> (RunResult, bool) {
        let path = self.cache_dir.as_ref().map(|dir| {
            dir.join(format!(
                "{}.json",
                cache_key(&job.material, &self.code_version)
            ))
        });
        if let Some(path) = &path {
            if let Some(result) = load_cached(path) {
                return (result, true);
            }
        }
        let result = (job.run)();
        if let Some(path) = &path {
            store_cached(path, &result);
        }
        (result, false)
    }
}

/// A baseline and the altered runs scored against it — the unit every
/// sensitivity score is made of. Campaigns submit `Group<Job>`s and get
/// `Group<RunResult>`s back ([`Engine::run_groups`]).
#[derive(Debug)]
pub struct Group<T> {
    /// The reference run.
    pub baseline: T,
    /// The runs compared against it, in submission order.
    pub altered: Vec<T>,
}

impl<T> Group<T> {
    /// A baseline with any number of altered runs.
    pub fn new(baseline: T, altered: Vec<T>) -> Group<T> {
        Group { baseline, altered }
    }

    /// A baseline with exactly one altered run.
    pub fn pair(baseline: T, altered: T) -> Group<T> {
        Group::new(baseline, vec![altered])
    }

    /// The two members of a [`Group::pair`].
    ///
    /// # Panics
    ///
    /// Panics if the group does not hold exactly one altered run.
    pub fn as_pair(&self) -> (&T, &T) {
        match &self.altered[..] {
            [altered] => (&self.baseline, altered),
            other => panic!(
                "expected a baseline/altered pair, found {} altered runs",
                other.len()
            ),
        }
    }
}

impl Group<Job> {
    /// The pair [`PaperSetup::sensitivity`] would run: `kind`'s reference
    /// baseline (on the hardware `kind` runs on) and the `kind` run.
    pub fn scenario(setup: &PaperSetup, chain: Chain, kind: ScenarioKind) -> Group<Job> {
        Group::pair(
            Job::scenario_baseline(setup, chain, kind),
            Job::scenario(setup, chain, kind),
        )
    }

    /// [`Group::scenario`] for every chain, in [`Chain::ALL`] order.
    pub fn scenario_per_chain(setup: &PaperSetup, kind: ScenarioKind) -> Vec<Group<Job>> {
        Chain::ALL
            .iter()
            .map(|&chain| Group::scenario(setup, chain, kind))
            .collect()
    }
}

impl Group<RunResult> {
    /// The report of a [`Group::pair`]: its altered run scored against
    /// its baseline.
    ///
    /// # Panics
    ///
    /// Panics if the group does not hold exactly one altered run.
    pub fn report(&self, chain: Chain, kind: ScenarioKind) -> ScenarioReport {
        let (baseline, altered) = self.as_pair();
        report_from_runs(chain, kind, baseline, altered)
    }

    /// One report per altered run, each scored against the baseline.
    pub fn reports(&self, chain: Chain, kind: ScenarioKind) -> Vec<ScenarioReport> {
        self.altered
            .iter()
            .map(|altered| report_from_runs(chain, kind, &self.baseline, altered))
            .collect()
    }
}

/// The code version mixed into every cache key: `git describe
/// --always --dirty`, or the crate version when git is unavailable
/// (a release tarball, say).
pub fn code_version() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| concat!("pkg-", env!("CARGO_PKG_VERSION")).to_owned())
}

fn load_cached(path: &Path) -> Option<RunResult> {
    let text = fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

fn store_cached(path: &Path, result: &RunResult) {
    // Failing to persist is not fatal — the run itself succeeded — but
    // a partially written entry must never be visible, so write to a
    // sibling temp file and rename into place.
    let Some(dir) = path.parent() else { return };
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let json = serde_json::to_string(result).expect("serialise run result");
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if fs::write(&tmp, json).is_ok() && fs::rename(&tmp, path).is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

/// One cell of the paper's campaign matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CampaignCell {
    /// The evaluated blockchain.
    pub chain: Chain,
    /// The scenario run in this cell.
    pub kind: ScenarioKind,
    /// CPU-scaling factor (2.0 on the 8-vCPU secure-client machines).
    pub cores: f64,
}

/// Cells this chain's campaign expands to, in report-assembly order:
/// the two baselines (standard and doubled-vCPU secure-client
/// reference), then the four altered scenarios.
pub const CELLS_PER_CHAIN: usize = 2 + ScenarioKind::ALTERED.len();

/// Expands the full campaign into its explicit cell matrix:
/// chain-major, `CELLS_PER_CHAIN` cells per chain.
pub fn campaign_cells() -> Vec<CampaignCell> {
    let mut cells = Vec::new();
    for &chain in &Chain::ALL {
        cells.push(CampaignCell {
            chain,
            kind: ScenarioKind::Baseline,
            cores: 1.0,
        });
        // The secure-client experiment ran on doubled-vCPU machines, so
        // it is compared against a doubled-vCPU baseline — its own cell.
        cells.push(CampaignCell {
            chain,
            kind: ScenarioKind::Baseline,
            cores: 2.0,
        });
        for kind in ScenarioKind::ALTERED {
            cells.push(CampaignCell {
                chain,
                kind,
                cores: scenario_cores(kind),
            });
        }
    }
    cells
}

impl CampaignCell {
    /// The cell as a schedulable job.
    pub fn job(&self, setup: &PaperSetup) -> Job {
        Job::config_with_cpu(
            cell_label(self.chain, self.kind, self.cores),
            self.chain,
            setup.run_config(self.chain, self.kind),
            self.cores,
        )
    }
}

/// Runs the complete campaign — every chain × every altered scenario,
/// reusing each chain's baseline runs — and returns the reports in
/// deterministic chain-major, scenario-minor order, plus the batch's
/// wall-clock telemetry for a *separate* artefact (telemetry is
/// machine-dependent and must stay out of determinism-gated JSON).
pub fn run_campaign(engine: &Engine, setup: &PaperSetup) -> (Vec<ScenarioReport>, EngineTelemetry) {
    let cells = campaign_cells();
    let (results, telemetry) =
        engine.run_with_telemetry(cells.iter().map(|cell| cell.job(setup)).collect());
    (reports_from_campaign_results(&results), telemetry)
}

/// Assembles the campaign reports from one [`campaign_cells`]-ordered
/// result slice (chain-major, [`CELLS_PER_CHAIN`] cells per chain).
/// Shared by the single-seed campaign and the per-replicate assembly of
/// the replication engine.
///
/// # Panics
///
/// Panics if `results` is shorter than the campaign matrix.
pub fn reports_from_campaign_results(results: &[RunResult]) -> Vec<ScenarioReport> {
    assert!(
        results.len() >= Chain::ALL.len() * CELLS_PER_CHAIN,
        "campaign result slice is truncated: {} of {} cells",
        results.len(),
        Chain::ALL.len() * CELLS_PER_CHAIN
    );
    let mut reports = Vec::new();
    for (&chain, cells) in Chain::ALL.iter().zip(results.chunks(CELLS_PER_CHAIN)) {
        let [base, base_8vcpu, altered @ ..] = cells else {
            unreachable!("CELLS_PER_CHAIN covers both baselines");
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

/// Runs baseline + one altered scenario for every chain and returns the
/// reports in chain order.
pub fn run_part(engine: &Engine, setup: &PaperSetup, kind: ScenarioKind) -> Vec<ScenarioReport> {
    let groups = engine.run_groups(Group::scenario_per_chain(setup, kind));
    Chain::ALL
        .iter()
        .zip(&groups)
        .map(|(&chain, group)| group.report(chain, kind))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> RunConfig {
        RunConfig::quick(7)
    }

    #[test]
    fn cache_key_is_stable() {
        let material = format!("chain=Aptos|cores=1.0|{:?}", config());
        assert_eq!(cache_key(&material, "v1"), cache_key(&material, "v1"));
    }

    #[test]
    fn cache_key_covers_every_field() {
        let base = config();
        let base_key = cache_key(&format!("chain=Aptos|cores=1.0|{base:?}"), "v1");
        // Any change to any RunConfig field must change the Debug form
        // and therefore the key.
        let variants: Vec<RunConfig> = vec![
            RunConfig {
                n: base.n + 1,
                ..base.clone()
            },
            RunConfig {
                // Derive the perturbed seed the way every replicated
                // campaign does, not with ad-hoc arithmetic.
                seed: stabl_stats::SeedSequence::new(base.seed).seed(1),
                ..base.clone()
            },
            RunConfig {
                horizon: base.horizon + stabl_sim::SimDuration::from_secs(1),
                ..base.clone()
            },
            RunConfig {
                client_mode: stabl::ClientMode::credence(3),
                ..base.clone()
            },
            RunConfig {
                faults: stabl::FaultSchedule::crash(
                    vec![stabl_sim::NodeId::new(9)],
                    stabl_sim::SimTime::from_secs(10),
                ),
                ..base.clone()
            },
            RunConfig {
                byzantine: stabl::ByzantineSpec::new(
                    [stabl_sim::NodeId::new(9)],
                    stabl::ByzantineBehavior::Equivocate,
                ),
                ..base.clone()
            },
            RunConfig {
                byzantine_rpc: vec![stabl_sim::NodeId::new(2)],
                ..base.clone()
            },
            RunConfig {
                retry: Some(stabl::RetryPolicy::standard()),
                ..base.clone()
            },
            RunConfig {
                stall_grace: base.stall_grace + stabl_sim::SimDuration::from_secs(1),
                ..base.clone()
            },
            RunConfig {
                workload: stabl::WorkloadSpec::production(
                    base.workload.end,
                    stabl::TrafficModel::production(900, 4),
                ),
                ..base.clone()
            },
        ];
        for variant in &variants {
            let key = cache_key(&format!("chain=Aptos|cores=1.0|{variant:?}"), "v1");
            assert_ne!(
                key, base_key,
                "field change must change the key: {variant:?}"
            );
        }
        // The non-config key inputs matter too.
        let material = format!("chain=Aptos|cores=1.0|{base:?}");
        assert_ne!(
            cache_key(&format!("chain=Solana|cores=1.0|{base:?}"), "v1"),
            base_key
        );
        assert_ne!(
            cache_key(&format!("chain=Aptos|cores=2.0|{base:?}"), "v1"),
            base_key
        );
        assert_ne!(cache_key(&material, "v2"), base_key);
    }

    #[test]
    fn cache_key_distinguishes_link_fault_probabilities() {
        // Two cells identical except for one LinkFault probability must
        // hash to different cache keys: the Debug form of the schedule
        // carries the full adversity config.
        let base = config();
        let cell = |drop_p: f64| RunConfig {
            faults: stabl::FaultSchedule::link_degrade(
                stabl::LinkFault::all().with_drop(drop_p),
                stabl_sim::SimTime::from_secs(5),
                stabl_sim::SimTime::from_secs(15),
            ),
            ..base.clone()
        };
        let a = cell(0.05);
        let b = cell(0.06);
        let key_a = cache_key(&format!("chain=Aptos|cores=1.0|{a:?}"), "v1");
        let key_b = cache_key(&format!("chain=Aptos|cores=1.0|{b:?}"), "v1");
        assert_ne!(key_a, key_b);
    }

    #[test]
    fn campaign_matrix_shape() {
        let cells = campaign_cells();
        assert_eq!(cells.len(), Chain::ALL.len() * CELLS_PER_CHAIN);
        for chunk in cells.chunks(CELLS_PER_CHAIN) {
            assert_eq!(chunk[0].kind, ScenarioKind::Baseline);
            assert_eq!(chunk[0].cores, 1.0);
            assert_eq!(chunk[1].kind, ScenarioKind::Baseline);
            assert_eq!(chunk[1].cores, 2.0);
            assert_eq!(chunk[2].kind, ScenarioKind::Crash);
            assert_eq!(chunk[5].kind, ScenarioKind::SecureClient);
            assert_eq!(chunk[5].cores, 2.0);
        }
    }

    /// The flat-slice assembly `run_part` used before groups existed,
    /// kept as the reference the grouping helper is checked against.
    fn run_part_by_index(
        engine: &Engine,
        setup: &PaperSetup,
        kind: ScenarioKind,
    ) -> Vec<ScenarioReport> {
        let mut jobs = Vec::new();
        for &chain in &Chain::ALL {
            jobs.push(Job::scenario_baseline(setup, chain, kind));
            jobs.push(Job::scenario(setup, chain, kind));
        }
        let results = engine.run(jobs);
        Chain::ALL
            .iter()
            .enumerate()
            .map(|(i, &chain)| report_from_runs(chain, kind, &results[2 * i], &results[2 * i + 1]))
            .collect()
    }

    #[test]
    fn run_part_through_groups_matches_the_indexed_assembly() {
        let setup = PaperSetup::quick(8, 42);
        let engine = Engine::new(2, None);
        for kind in [ScenarioKind::Crash, ScenarioKind::SecureClient] {
            assert_eq!(
                run_part(&engine, &setup, kind),
                run_part_by_index(&engine, &setup, kind),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn run_groups_returns_results_in_the_submitted_shape() {
        let setup = PaperSetup::quick(8, 42);
        let engine = Engine::new(2, None);
        let job = |chain, kind| Job::scenario(&setup, chain, kind);
        let groups = engine.run_groups(vec![
            Group::new(job(Chain::Aptos, ScenarioKind::Baseline), Vec::new()),
            Group::new(
                job(Chain::Solana, ScenarioKind::Baseline),
                vec![
                    job(Chain::Solana, ScenarioKind::Crash),
                    job(Chain::Solana, ScenarioKind::Transient),
                ],
            ),
            Group::scenario(&setup, Chain::Redbelly, ScenarioKind::Crash),
        ]);
        let shape: Vec<usize> = groups.iter().map(|group| group.altered.len()).collect();
        assert_eq!(shape, [0, 2, 1]);
        let flat = engine.run(vec![
            job(Chain::Solana, ScenarioKind::Baseline),
            job(Chain::Solana, ScenarioKind::Transient),
        ]);
        let json = |run: &RunResult| serde_json::to_string(run).expect("serialise");
        assert_eq!(json(&groups[1].baseline), json(&flat[0]));
        assert_eq!(json(&groups[1].altered[1]), json(&flat[1]));
        assert_eq!(
            groups[1].reports(Chain::Solana, ScenarioKind::Crash).len(),
            2
        );
    }
}
