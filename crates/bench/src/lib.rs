//! # stabl-bench — the figure-regeneration harness
//!
//! One binary, `stabl-bench`, over a registry of campaigns
//! ([`campaigns::REGISTRY`]): every figure of the paper and every
//! extension is a row naming the files it writes and the flags that
//! reproduce the committed copy under `results/`.
//!
//! ```text
//! stabl-bench list                     # the registry, as a table
//! stabl-bench <campaign> [flags]       # one campaign
//! stabl-bench all --out DIR            # every committed artifact
//! ```
//!
//! | Module | Holds |
//! |---|---|
//! | [`campaigns`] | the registry, `list`/`all`, and one function per campaign |
//! | [`engine`] | the worker pool, the content-addressed run cache, [`Group`] |
//! | [`replicate`] | the campaign fanned out over N seeds with bootstrap CIs |
//! | [`adversary`] | the adversary search bridged onto the engine |
//! | [`speed_bench`] | kernel workloads the host-time benchmark (`benchmark/`) drives |
//!
//! Every campaign accepts:
//!
//! * `--quick <secs>` — scale the 400 s campaign down (useful: 100–150;
//!   at least 2);
//! * `--seed <u64>` — change the master seed;
//! * `--nodes <n>` — validators per run (default 10, at least 10: five
//!   client-facing plus five faultable); campaigns that sweep `n`
//!   themselves (`ext_scale_sweep`) keep their own sizes;
//! * `--out <dir>` — where JSON/CSV artefacts go (default `results/`);
//! * `--jobs <n>` — worker threads for the campaign [`engine`] (default:
//!   all hardware threads);
//! * `--no-cache` — recompute every cell instead of replaying the
//!   content-addressed cache under `<out>/.cache/`;
//! * `--replicates <n>` — seeds per cell for the replicated campaigns
//!   (`fig3_sensitivity_ci`: 8, `ext_contention`: 3, `ext_adversary`: 5);
//! * `--budget <evals>`, `--strategy annealing|mu-lambda`, `--objective
//!   sensitivity|liveness-loss`, `--chain <name>` (repeatable) — read by
//!   `ext_adversary` only.
//!
//! All runs go through the campaign [`engine`]: cells execute
//! concurrently and memoise their results, but artefacts are assembled
//! in deterministic chain/scenario order and are byte-identical
//! whatever the `--jobs`/cache settings.

pub mod adversary;
pub mod campaigns;
pub mod engine;
pub mod replicate;
pub mod speed_bench;

use std::fs;
use std::path::PathBuf;

pub use adversary::{paper_worst, replicate_ci, EngineEval};
pub use engine::{
    run_campaign, run_part, CampaignCell, CellTelemetry, Engine, EngineTelemetry, Group, Job,
};
pub use replicate::{replication_table, run_replicated_campaign, DEFAULT_REPLICATES};

use stabl::report::{RadarRow, ScenarioReport, SensitivityRecord};
use stabl::{Chain, PaperSetup, RunResult, ScenarioKind};
use stabl_adversary::{Objective, Strategy};

/// Command-line options shared by all campaigns.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// The experimental campaign parameters.
    pub setup: PaperSetup,
    /// Output directory for artefacts.
    pub out_dir: PathBuf,
    /// Worker threads for the campaign engine.
    pub jobs: usize,
    /// Skip the on-disk run cache and recompute every cell.
    pub no_cache: bool,
    /// Seeds per cell for replicated campaigns (`--replicates`); `None`
    /// leaves the campaign's default in force.
    pub replicates: Option<usize>,
    /// Adversary search: evaluations per chain (`--budget`).
    pub budget: usize,
    /// Adversary search: the search strategy (`--strategy`).
    pub strategy: Strategy,
    /// Adversary search: what the search maximises (`--objective`).
    pub objective: Objective,
    /// Adversary search: the chains to attack (`--chain`, repeatable);
    /// empty means all five.
    pub chains: Vec<Chain>,
    /// The two arguments that are not flags: `dbg_scenario <chain>
    /// <scenario>`.
    pub scenario: Option<(Chain, ScenarioKind)>,
}

/// The flags [`BenchOpts::parse`] knows, for its error messages.
const KNOWN_FLAGS: &str = "--quick --seed --nodes --out --jobs --no-cache --replicates \
                           --budget --strategy --objective --chain";

/// The shortest `--quick` horizon whose runs submit any transaction:
/// below it `PaperSetup::quick` leaves an empty submission window.
const MIN_QUICK_SECS: u64 = 2;

/// Parses the value of `flag`, naming the flag and what it takes on failure.
fn parsed<T: std::str::FromStr>(flag: &str, what: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes {what}, got {value}"))
}

/// [`parsed`] for counts that must be at least `min`.
fn count(flag: &str, what: &str, value: &str, min: usize) -> Result<usize, String> {
    match value.parse() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!("{flag} takes {what}, got {value}")),
    }
}

impl BenchOpts {
    /// Parses a campaign's arguments (everything after its name).
    ///
    /// # Errors
    ///
    /// A message naming the offending flag (and the known set, for an
    /// unknown one) on malformed arguments.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<BenchOpts, String> {
        let mut opts = BenchOpts {
            setup: PaperSetup::default(),
            out_dir: PathBuf::from("results"),
            jobs: Engine::default_workers(),
            no_cache: false,
            replicates: None,
            budget: 200,
            strategy: Strategy::Annealing,
            objective: Objective::Sensitivity,
            chains: Vec::new(),
            scenario: None,
        };
        let mut operands = Vec::new();
        let mut quick: Option<u64> = None;
        let mut seed: Option<u64> = None;
        let mut nodes: Option<usize> = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |what: &str| {
                args.next()
                    .ok_or_else(|| format!("{arg} takes {what}, got nothing"))
            };
            match arg.as_str() {
                "--quick" => quick = Some(parsed(&arg, "seconds", &value("seconds")?)?),
                "--seed" => seed = Some(parsed(&arg, "a u64", &value("a u64")?)?),
                "--nodes" => {
                    let what = "a validator count of at least 10";
                    nodes = Some(count(&arg, what, &value(what)?, 10)?);
                }
                "--out" => opts.out_dir = PathBuf::from(value("a directory")?),
                "--jobs" => {
                    let what = "a positive thread count";
                    opts.jobs = count(&arg, what, &value(what)?, 1)?;
                }
                "--no-cache" => opts.no_cache = true,
                "--replicates" => {
                    let what = "a positive seed count";
                    opts.replicates = Some(count(&arg, what, &value(what)?, 1)?);
                }
                "--budget" => {
                    let what = "an eval count > 1";
                    opts.budget = count(&arg, what, &value(what)?, 2)?;
                }
                "--strategy" => {
                    let name = value("annealing|mu-lambda")?;
                    opts.strategy = Strategy::parse(&name).ok_or_else(|| {
                        format!("unknown strategy {name}; known: annealing mu-lambda")
                    })?;
                }
                "--objective" => {
                    let name = value("sensitivity|liveness-loss")?;
                    opts.objective = Objective::parse(&name).ok_or_else(|| {
                        format!("unknown objective {name}; known: sensitivity liveness-loss")
                    })?;
                }
                "--chain" => opts.chains.push(value("a chain name")?.parse()?),
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown argument {flag}; known: {KNOWN_FLAGS}"));
                }
                _ => operands.push(arg),
            }
        }
        if let Some(secs) = quick {
            if secs < MIN_QUICK_SECS {
                return Err(format!(
                    "--quick takes at least {MIN_QUICK_SECS} seconds, got {secs}"
                ));
            }
            opts.setup = PaperSetup::quick(secs, seed.unwrap_or(opts.setup.seed));
        } else if let Some(seed) = seed {
            opts.setup.seed = seed;
        }
        if let Some(n) = nodes {
            opts.setup.n = n;
        }
        opts.scenario = match &operands[..] {
            [] => None,
            [chain, scenario] => Some((chain.parse()?, scenario.parse()?)),
            _ => return Err(format!("expected <chain> <scenario>, got {operands:?}")),
        };
        Ok(opts)
    }

    /// The campaign engine these options describe: `--jobs` workers,
    /// memoising into `<out>/.cache/` unless `--no-cache` was given.
    pub fn engine(&self) -> Engine {
        let cache_dir = if self.no_cache {
            None
        } else {
            Some(self.out_dir.join(".cache"))
        };
        Engine::new(self.jobs, cache_dir)
    }

    /// Writes a serialisable artefact as pretty JSON under the output
    /// directory.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure (campaigns fail loudly).
    pub fn write_json<T: serde::Serialize>(&self, name: &str, value: &T) {
        let json = serde_json::to_string_pretty(value).expect("serialise artefact");
        self.write_text(name, &json);
    }

    /// Writes raw text (CSV, JSON Lines) under the output
    /// directory, creating the sub-directories `name` goes through.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure.
    pub fn write_text(&self, name: &str, contents: &str) {
        let path = self.out_dir.join(name);
        let dir = path.parent().expect("artefact names are relative files");
        fs::create_dir_all(dir).expect("create output directory");
        fs::write(&path, contents).expect("write artefact");
        eprintln!("wrote {}", path.display());
    }
}

/// Folds campaign reports into Fig. 7's radar rows.
pub fn radar_rows(reports: &[ScenarioReport]) -> Vec<RadarRow> {
    Chain::ALL
        .iter()
        .map(|&chain| {
            let pick = |kind: ScenarioKind| -> SensitivityRecord {
                reports
                    .iter()
                    .find(|r| r.chain == chain && r.kind == kind)
                    .map(|r| r.sensitivity.into())
                    .unwrap_or(SensitivityRecord {
                        score: None,
                        improved: false,
                    })
            };
            RadarRow {
                chain: chain.name().to_owned(),
                crash: pick(ScenarioKind::Crash),
                transient: pick(ScenarioKind::Transient),
                partition: pick(ScenarioKind::Partition),
                secure_client: pick(ScenarioKind::SecureClient),
            }
        })
        .collect()
}

/// Renders two throughput series as a CSV: `second,baseline,altered`.
pub fn throughput_csv(baseline: &RunResult, altered: &RunResult) -> String {
    let b = baseline.throughput();
    let a = altered.throughput();
    let mut out = String::from("second,baseline_tps,altered_tps\n");
    for (i, (bb, aa)) in b.bins().iter().zip(a.bins().iter()).enumerate() {
        out.push_str(&format!("{i},{bb},{aa}\n"));
    }
    out
}

/// Formats a sensitivity table (one part of Fig. 3) with ASCII bars.
pub fn sensitivity_table(title: &str, reports: &[ScenarioReport]) -> String {
    let mut out = format!("{title}\n{}\n", "─".repeat(title.chars().count()));
    let max = reports
        .iter()
        .filter_map(|r| r.sensitivity.score())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for report in reports {
        let record: SensitivityRecord = report.sensitivity.into();
        out.push_str(&format!(
            "{:<10} {}\n",
            report.chain.name(),
            stabl::report::ascii_bar(record, max, 40)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<BenchOpts, String> {
        BenchOpts::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn no_flags_means_the_paper_campaign() {
        let opts = parse("").expect("defaults");
        let paper = PaperSetup::default();
        assert_eq!(opts.setup.horizon, paper.horizon);
        assert_eq!(opts.setup.seed, paper.seed);
        assert_eq!(opts.setup.n, paper.n);
        assert_eq!(opts.out_dir, PathBuf::from("results"));
        assert_eq!(opts.jobs, Engine::default_workers());
        assert!(!opts.no_cache);
        assert_eq!(opts.replicates, None);
        assert_eq!(opts.budget, 200);
        assert_eq!(opts.strategy, Strategy::Annealing);
        assert_eq!(opts.objective, Objective::Sensitivity);
        assert!(opts.chains.is_empty() && opts.scenario.is_none());
        assert_eq!(
            opts.engine().cache_dir(),
            Some(PathBuf::from("results/.cache").as_path())
        );
    }

    #[test]
    fn every_flag_lands_in_its_field() {
        let opts = parse(
            "--nodes 16 --quick 60 --seed 42 --out elsewhere --jobs 3 --no-cache --replicates 4 \
             --budget 25 --strategy mu-lambda --objective liveness-loss --chain redbelly \
             --chain Solana",
        )
        .expect("well-formed flags");
        let quick = PaperSetup::quick(60, 42);
        assert_eq!(opts.setup.horizon, quick.horizon);
        assert_eq!(opts.setup.fault_at, quick.fault_at);
        assert_eq!(opts.setup.seed, 42);
        assert_eq!(opts.setup.n, 16);
        assert_eq!(opts.out_dir, PathBuf::from("elsewhere"));
        assert_eq!(opts.jobs, 3);
        assert!(opts.no_cache && opts.engine().cache_dir().is_none());
        assert_eq!(opts.replicates, Some(4));
        assert_eq!(opts.budget, 25);
        assert_eq!(opts.strategy, Strategy::MuPlusLambda);
        assert_eq!(opts.objective, Objective::LivenessLoss);
        assert_eq!(opts.chains, [Chain::Redbelly, Chain::Solana]);
    }

    #[test]
    fn seed_without_quick_keeps_the_full_horizon() {
        let opts = parse("--seed 7").expect("well-formed flags");
        assert_eq!(opts.setup.seed, 7);
        assert_eq!(opts.setup.horizon, PaperSetup::default().horizon);
    }

    #[test]
    fn a_repeated_flag_takes_its_last_value() {
        // `stabl-bench all` relies on this: user flags follow the row's.
        let opts = parse("--nodes 12 --quick 60 --seed 42 --quick 8 --nodes 16").expect("flags");
        assert_eq!(opts.setup.horizon, PaperSetup::quick(8, 42).horizon);
        assert_eq!(opts.setup.seed, 42);
        assert_eq!(opts.setup.n, 16, "--nodes survives the --quick rebuild");
    }

    #[test]
    fn the_two_operands_are_a_chain_and_a_scenario() {
        let opts = parse("redbelly --quick 20 secure").expect("operands");
        assert_eq!(
            opts.scenario,
            Some((Chain::Redbelly, ScenarioKind::SecureClient))
        );
    }

    #[test]
    fn malformed_arguments_are_errors_naming_the_flag() {
        for (line, needle) in [
            ("--jobs 0", "--jobs takes a positive thread count"),
            ("--jobs many", "--jobs takes a positive thread count"),
            ("--replicates 0", "--replicates takes a positive seed count"),
            ("--budget 1", "--budget takes an eval count > 1"),
            ("--quick", "--quick takes seconds, got nothing"),
            ("--quick soon", "--quick takes seconds, got soon"),
            ("--quick 0", "--quick takes at least 2 seconds, got 0"),
            ("--quick 1", "--quick takes at least 2 seconds, got 1"),
            ("--seed -1", "--seed takes a u64"),
            (
                "--nodes 3",
                "--nodes takes a validator count of at least 10, got 3",
            ),
            (
                "--nodes",
                "--nodes takes a validator count of at least 10, got nothing",
            ),
            ("--out", "--out takes a directory"),
            ("--strategy hill-climb", "known: annealing mu-lambda"),
            ("--objective chaos", "known: sensitivity liveness-loss"),
            ("--chain bitcoin", "known: Algorand Aptos"),
            (
                "--reps 3",
                "unknown argument --reps; known: --quick --seed --nodes",
            ),
            ("redbelly", "expected <chain> <scenario>"),
            ("redbelly crash again", "expected <chain> <scenario>"),
            ("bitcoin crash", "unknown chain bitcoin"),
            ("redbelly meteor", "unknown scenario meteor"),
        ] {
            let err = parse(line).expect_err("malformed");
            assert!(err.contains(needle), "{line}: {err}");
        }
    }
}
