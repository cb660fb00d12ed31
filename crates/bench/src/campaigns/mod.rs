//! The campaign registry: one row per thing `stabl-bench` can run.
//!
//! A [`Campaign`] names the program (`stabl-bench <name>`), the files
//! it writes under `--out`, and — as *data*, not prose — the flags that
//! reproduce the copy of those files committed under `results/`. That
//! last column is what lets `stabl-bench all` regenerate every
//! committed artifact with one command, CI `diff` the result against
//! the repository, and `stabl-bench list` (embedded in the README)
//! answer "how was this file produced?" without a second source of
//! truth.

mod ablations;
mod contention;
mod extensions;
mod figures;
mod observe;
mod search;

use stabl::{Chain, ScenarioKind};

use crate::BenchOpts;

/// One runnable campaign.
pub struct Campaign {
    /// The subcommand: `stabl-bench <name>`.
    pub name: &'static str,
    /// What it regenerates, in one line.
    pub about: &'static str,
    /// The files it writes under `--out`. `{chain}` stands for each of
    /// the five lower-case chain names, `{scenario}` for each of the
    /// four altered scenario names.
    pub artifacts: &'static [&'static str],
    /// The flags that reproduce the copy committed under `results/`
    /// (`Some(&[])`: the defaults, i.e. the paper's full horizon);
    /// `None` if nothing it writes is committed.
    pub committed_with: Option<&'static [&'static str]>,
    /// The campaign itself.
    pub run: fn(&BenchOpts),
}

/// The one campaign whose arguments are not all flags.
const TAKES_OPERANDS: &str = "dbg_scenario";

/// The full 400 s horizon at the default seed.
const DEFAULTS: Option<&[&str]> = Some(&[]);

/// Every campaign, in `stabl-bench all` order: the adversary search
/// precedes `ext_diagnose`, which replays `<out>/adversary/corpus/`.
pub const REGISTRY: &[Campaign] = &[
    Campaign {
        name: "fig1_aptos_ecdf",
        about: "Fig. 1 — Aptos latency eCDFs, baseline vs transient failures",
        artifacts: &["fig1_aptos_ecdf.json"],
        committed_with: DEFAULTS,
        run: figures::fig1_aptos_ecdf,
    },
    Campaign {
        name: "fig3_sensitivity",
        about: "Fig. 3a–d — sensitivity of the 5 chains per fault type",
        artifacts: &["fig3_sensitivity.json", "fig3_telemetry.json"],
        committed_with: DEFAULTS,
        run: figures::fig3_sensitivity,
    },
    Campaign {
        name: "fig3_sensitivity_ci",
        about: "Fig. 3 replicated over N = 8 seeds with 95 % bootstrap CIs",
        artifacts: &[
            "fig3_sensitivity_ci.json",
            "fig3_sensitivity_ci_telemetry.json",
        ],
        committed_with: DEFAULTS,
        run: figures::fig3_sensitivity_ci,
    },
    Campaign {
        name: "fig4_throughput_crash",
        about: "Fig. 4 — throughput over time under `f = t` crashes",
        artifacts: &["fig4_throughput_crash.{chain}.csv"],
        committed_with: DEFAULTS,
        run: |opts| figures::throughput(opts, 4, ScenarioKind::Crash),
    },
    Campaign {
        name: "fig5_throughput_transient",
        about: "Fig. 5 — throughput over time under transient failures",
        artifacts: &["fig5_throughput_transient.{chain}.csv"],
        committed_with: DEFAULTS,
        run: |opts| figures::throughput(opts, 5, ScenarioKind::Transient),
    },
    Campaign {
        name: "fig6_throughput_partition",
        about: "Fig. 6 — throughput over time under a partition",
        artifacts: &["fig6_throughput_partition.{chain}.csv"],
        committed_with: DEFAULTS,
        run: |opts| figures::throughput(opts, 6, ScenarioKind::Partition),
    },
    Campaign {
        name: "fig7_radar",
        about: "Fig. 7 — the radar synthesis of all sensitivities",
        artifacts: &["fig7_radar.json"],
        committed_with: DEFAULTS,
        run: figures::fig7_radar,
    },
    Campaign {
        name: "metrics_comparison",
        about: "§3 — the score against latency deltas, throughput drop and downtime",
        artifacts: &["metrics_comparison.json"],
        committed_with: DEFAULTS,
        run: figures::metrics_comparison,
    },
    Campaign {
        name: "ablations",
        about: "remove the mechanism the paper blames for each finding",
        artifacts: &["ablations.json"],
        committed_with: DEFAULTS,
        run: ablations::ablations,
    },
    Campaign {
        name: "ext_slow_node",
        about: "one validator slowed by 300 ms between the fault marks",
        artifacts: &["ext_slow_node.json"],
        committed_with: DEFAULTS,
        run: extensions::slow_node,
    },
    Campaign {
        name: "ext_wan",
        about: "crash sensitivity under LAN, WAN and geo-distributed latencies",
        artifacts: &["ext_wan.json"],
        committed_with: DEFAULTS,
        run: extensions::wan,
    },
    Campaign {
        name: "ext_credence",
        about: "single / wait-all / credence clients against a withholding RPC node",
        artifacts: &["ext_credence.json"],
        committed_with: DEFAULTS,
        run: extensions::credence,
    },
    Campaign {
        name: "ext_stake",
        about: "crashing a 40 %-stake Solana validator vs a minnow",
        artifacts: &["ext_stake.json"],
        committed_with: DEFAULTS,
        run: extensions::stake,
    },
    Campaign {
        name: "ext_workload_stress",
        about: "fault-free 4× bursts and a 200 → 400 TPS ramp",
        artifacts: &["ext_workload_stress.json"],
        committed_with: DEFAULTS,
        run: extensions::workload_stress,
    },
    Campaign {
        name: "ext_scale_sweep",
        about: "crash sensitivity at n ∈ {10, 16, 22} validators",
        artifacts: &["ext_scale_sweep.json"],
        committed_with: DEFAULTS,
        run: extensions::scale_sweep,
    },
    Campaign {
        name: "ext_chaos",
        about: "composed adversity (loss + flap + slow + equivocation), retrying clients",
        artifacts: &["ext_chaos.json"],
        committed_with: None,
        run: extensions::chaos,
    },
    Campaign {
        name: "ext_contention",
        about: "crash sensitivity under Zipf-skewed, bursty production traffic",
        artifacts: &["contention/contention.json", "contention/contention.csv"],
        committed_with: Some(&["--quick", "60"]),
        run: contention::contention,
    },
    Campaign {
        name: "ext_adversary",
        about: "search, shrink and replicate each chain's worst fault schedule",
        artifacts: &[
            "ext_adversary.json",
            "adversary_traces.json",
            "adversary/corpus/{chain}.json",
        ],
        committed_with: Some(&["--quick", "60", "--seed", "42", "--budget", "200"]),
        run: search::adversary,
    },
    Campaign {
        name: "ext_diagnose",
        about: "blame tables and liveness post-mortems for 4 scenarios + the corpus cell",
        artifacts: &[
            "diagnose/{chain}_{scenario}.json",
            "diagnose/{chain}_{scenario}_timeline.jsonl",
            "diagnose/{chain}_adversary.json",
            "diagnose/{chain}_adversary_timeline.jsonl",
            "diagnose/diagnose_summary.json",
        ],
        committed_with: Some(&["--quick", "60"]),
        run: observe::diagnose,
    },
    Campaign {
        name: "ext_trace",
        about: "Perfetto traces, event dumps and stage latencies of one crash run per chain",
        artifacts: &[
            "trace_{chain}.json",
            "events_{chain}.jsonl",
            "stats_{chain}.json",
            "trace_summary.json",
        ],
        committed_with: None,
        run: observe::trace,
    },
    Campaign {
        name: "dbg_scenario",
        about:
            "`dbg_scenario <chain> <scenario>`: one pair's sensitivity, latency stats and throughput timeline",
        artifacts: &[],
        committed_with: None,
        run: figures::dbg_scenario,
    },
];

impl Campaign {
    /// [`Campaign::artifacts`] with the placeholders expanded: every
    /// file one run writes, relative to `--out`.
    pub fn artifact_paths(&self) -> Vec<String> {
        let chains: Vec<String> = Chain::ALL
            .iter()
            .map(|chain| chain.name().to_lowercase())
            .collect();
        let scenarios: Vec<String> = ScenarioKind::ALTERED
            .iter()
            .map(|kind| kind.name().to_owned())
            .collect();
        let patterns = self.artifacts.iter().map(|&p| p.to_owned()).collect();
        expand(
            expand(patterns, "{chain}", &chains),
            "{scenario}",
            &scenarios,
        )
    }

    /// The flags column of [`list`]: how the committed copy was made.
    fn committed_with_label(&self) -> String {
        match self.committed_with {
            None => "— (nothing committed)".to_owned(),
            Some([]) => "default flags".to_owned(),
            Some(flags) => format!("`{}`", flags.join(" ")),
        }
    }
}

/// Replaces `placeholder` in every pattern that has it by each of `values`.
fn expand(patterns: Vec<String>, placeholder: &str, values: &[String]) -> Vec<String> {
    patterns
        .into_iter()
        .flat_map(|pattern| {
            if pattern.contains(placeholder) {
                values
                    .iter()
                    .map(|value| pattern.replace(placeholder, value))
                    .collect()
            } else {
                vec![pattern]
            }
        })
        .collect()
}

/// `true` for artifacts that are written but never committed: wall-clock
/// telemetry and the bulky per-run metric timelines (both git-ignored;
/// the same patterns CI excludes when it diffs `all` against `results/`).
pub fn is_uncommitted_artifact(path: &str) -> bool {
    path.contains("telemetry") || path.ends_with("_timeline.jsonl")
}

/// Looks a campaign up by name.
///
/// # Errors
///
/// Names the known campaigns when `name` is not one of them.
pub fn find(name: &str) -> Result<&'static Campaign, String> {
    REGISTRY.iter().find(|c| c.name == name).ok_or_else(|| {
        let known: Vec<&str> = REGISTRY.iter().map(|c| c.name).collect();
        format!(
            "unknown campaign {name}; known: list all {}",
            known.join(" ")
        )
    })
}

/// The registry as a Markdown table (what `stabl-bench list` prints and
/// the README embeds verbatim).
pub fn list() -> String {
    let mut out = String::from(
        "| Campaign | Regenerates | Committed copy made with | Writes under `--out` |\n\
         |---|---|---|---|\n",
    );
    for campaign in REGISTRY {
        let artifacts: Vec<String> = campaign
            .artifacts
            .iter()
            .map(|a| format!("`{a}`"))
            .collect();
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            campaign.name,
            campaign.about,
            campaign.committed_with_label(),
            if artifacts.is_empty() {
                "—".to_owned()
            } else {
                artifacts.join(", ")
            },
        ));
    }
    out
}

impl Campaign {
    /// Parses `args` and runs the campaign.
    fn run_with(&self, args: impl IntoIterator<Item = String>) -> Result<(), String> {
        let opts = BenchOpts::parse(args)?;
        // Figs. 4–6 end in `figures::throughput`'s trimmed report, which
        // a very short `--quick` horizon cannot fit.
        if self.name.contains("_throughput_") {
            figures::throughput_fits(&opts.setup).map_err(|e| format!("{}: {e}", self.name))?;
        }
        match (self.name == TAKES_OPERANDS, opts.scenario) {
            (true, None) => Err(format!(
                "usage: stabl-bench {} <chain> <scenario>",
                self.name
            )),
            (false, Some(_)) => Err(format!("{} takes flags only", self.name)),
            _ => {
                (self.run)(&opts);
                Ok(())
            }
        }
    }
}

/// Runs every campaign with a committed artifact at its
/// `committed_with` flags followed by `args` (so `--out`, `--jobs` and
/// a smoke-test `--quick` apply to all of them). The campaigns share
/// `<out>/.cache/`, so a cell several of them need simulates once.
fn all(args: &[String]) -> Result<(), String> {
    for campaign in REGISTRY {
        let Some(flags) = campaign.committed_with else {
            continue;
        };
        eprintln!("\n== {} ==", campaign.name);
        let flags = flags.iter().map(|&flag| flag.to_owned());
        campaign.run_with(flags.chain(args.iter().cloned()))?;
    }
    Ok(())
}

/// The `stabl-bench` command line: `list`, `all [flags]` or
/// `<campaign> [flags]`.
///
/// # Errors
///
/// A usage message for an unknown campaign or malformed flags.
pub fn dispatch(args: Vec<String>) -> Result<(), String> {
    let Some((command, args)) = args.split_first() else {
        return Err(format!(
            "usage: stabl-bench list | all [flags] | <campaign> [flags]\n\n{}",
            list()
        ));
    };
    match command.as_str() {
        "list" => {
            print!("{}", list());
            Ok(())
        }
        "all" => all(args),
        name => find(name)?.run_with(args.iter().cloned()),
    }
}
