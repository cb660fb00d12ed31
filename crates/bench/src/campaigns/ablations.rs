//! Ablations: remove the mechanism the paper blames for each finding and
//! show the finding disappears.
//!
//! | Ablation | Paper's causal claim (§) | Expectation without it |
//! |---|---|---|
//! | Solana, no warmup epochs | short (< 360-slot) warmup epochs make the EAH panic reachable (§5) | transient failures no longer crash the cluster |
//! | Avalanche, no throttling | the CPU/buffer throttlers cause the post-outage metastable congestion (§5) | liveness recovers after the restart |
//! | Aptos, no leader reputation | reputation-based exclusion ends the §4 oscillation | crash sensitivity grows |
//! | Algorand, no dynamic round time | DRT's adaptive timing shapes the §4 crash behaviour | degradation turns uniform (and larger in mean) instead of bursty |
//! | Redbelly, capped superblock | uncapped collaborative blocks drain the §5 backlog at once | recovery slows towards Aptos's |

use stabl::metrics::Sensitivity;
use stabl::{run_protocol, Chain, RunResult, ScenarioKind};
use stabl_algorand::{AlgorandConfig, AlgorandNode};
use stabl_aptos::{AptosConfig, AptosNode};
use stabl_avalanche::{AvalancheConfig, AvalancheNode};
use stabl_redbelly::{RedbellyConfig, RedbellyNode};
use stabl_solana::{EpochSchedule, SolanaConfig, SolanaNode};

use crate::{BenchOpts, Group, Job};

/// One ablated mechanism: the scenario it is scored under, what must
/// hold of the altered run, and — where the commentary compares against
/// it — how to introduce the unablated score.
#[derive(Clone, Copy)]
struct Ablation {
    name: &'static str,
    chain: Chain,
    kind: ScenarioKind,
    check: fn(&RunResult),
    unablated: Option<&'static str>,
}

/// An [`Ablation`] with its baseline/altered pair as one group of
/// cache-aware engine jobs, every node built from `$config`.
macro_rules! ablation {
    ($ablation:expr, $node:ty, $config:expr, $setup:expr) => {{
        let ablation: Ablation = $ablation;
        let config = $config;
        let salt = format!("{}|{:?}", stringify!($node), config);
        let job = |label: &str, kind| {
            let pc = config.clone();
            Job::custom(
                format!("{}/{label}", ablation.name),
                $setup.run_config(ablation.chain, kind),
                salt.clone(),
                move |cfg| run_protocol::<$node>(cfg, pc.clone()),
            )
        };
        let jobs = Group::pair(
            job("baseline", ScenarioKind::Baseline),
            job("altered", ablation.kind),
        );
        (ablation, jobs)
    }};
}

/// Runs the five ablations plus the two unablated reference pairs the
/// commentary compares against.
pub fn ablations(opts: &BenchOpts) {
    let setup = &opts.setup;
    println!(
        "ablation campaign at {} (seed {})\n",
        setup.horizon, setup.seed
    );

    let (ablations, groups): (Vec<Ablation>, Vec<Group<Job>>) = [
        // Solana without warmup epochs: the EAH windows of a full-length
        // epoch fall outside the run, so the panic is unreachable.
        ablation!(
            Ablation {
                name: "solana/no-warmup-epochs",
                chain: Chain::Solana,
                kind: ScenarioKind::Transient,
                check: |altered| assert!(
                    altered.panics.is_empty(),
                    "without warmup epochs there is no EAH panic"
                ),
                unablated: None,
            },
            SolanaNode,
            SolanaConfig {
                schedule: EpochSchedule::constant(8192),
                ..SolanaConfig::default()
            },
            setup
        ),
        // Avalanche without throttling: unlimited CPU quota — the
        // re-gossip storm is absorbed and consensus resumes.
        ablation!(
            Ablation {
                name: "avalanche/no-throttling",
                chain: Chain::Avalanche,
                kind: ScenarioKind::Transient,
                check: |altered| assert!(
                    !altered.lost_liveness,
                    "without throttling the congestion is not metastable"
                ),
                unablated: None,
            },
            AvalancheNode,
            AvalancheConfig {
                cpu_quota: f64::INFINITY,
                ..AvalancheConfig::default()
            },
            setup
        ),
        // Aptos without leader reputation: crashed leaders stay in the
        // rotation, the oscillation never stabilises.
        ablation!(
            Ablation {
                name: "aptos/no-leader-reputation",
                chain: Chain::Aptos,
                kind: ScenarioKind::Crash,
                check: |_| {},
                unablated: Some("with reputation the crash score was"),
            },
            AptosNode,
            AptosConfig {
                reputation_strikes: u32::MAX,
                ..AptosConfig::default()
            },
            setup
        ),
        // Algorand without dynamic round time: the filter never shrinks,
        // so there is nothing to reset — slower baseline, no sawtooth.
        ablation!(
            Ablation {
                name: "algorand/no-dynamic-round-time",
                chain: Chain::Algorand,
                kind: ScenarioKind::Crash,
                check: |_| {},
                unablated: None,
            },
            AlgorandNode,
            {
                let base = AlgorandConfig::default();
                AlgorandConfig {
                    min_filter: base.default_filter,
                    filter_shrink_permille: 1_000,
                    ..base
                }
            },
            setup
        ),
        // Redbelly with capped (non-collaborative) proposals: the backlog
        // drains over many heights instead of one superblock.
        ablation!(
            Ablation {
                name: "redbelly/capped-superblock",
                chain: Chain::Redbelly,
                kind: ScenarioKind::Transient,
                check: |_| {},
                unablated: Some("with uncapped superblocks the score was"),
            },
            RedbellyNode,
            RedbellyConfig {
                max_proposal_txs: 150,
                ..RedbellyConfig::default()
            },
            setup
        ),
    ]
    .into_iter()
    .unzip();

    // Schedule everything up front — the five ablated pairs, then the
    // unablated pairs the commentary compares against — and let the
    // engine run the cells concurrently.
    let references = ablations
        .iter()
        .filter(|a| a.unablated.is_some())
        .map(|a| Group::scenario(setup, a.chain, a.kind));
    let results = opts
        .engine()
        .run_groups(groups.into_iter().chain(references).collect());
    let (ablated, references) = results.split_at(ablations.len());
    let mut references = references.iter();

    let mut rows = Vec::new();
    for (ablation, group) in ablations.iter().zip(ablated) {
        let Ablation {
            name, chain, kind, ..
        } = *ablation;
        let (_, altered) = group.as_pair();
        (ablation.check)(altered);
        let report = group.report(chain, kind);
        println!(
            "{name:<44} {:<13} sensitivity {:>12}  ({} unresolved, {} panics)",
            kind.name(),
            report.sensitivity.to_string(),
            altered.unresolved,
            altered.panics.len()
        );
        if let Some(intro) = ablation.unablated {
            let reference = references.next().expect("one reference per comparison");
            println!(
                "{:<44} ({intro} {})",
                "",
                reference.report(chain, kind).sensitivity
            );
        }
        rows.push(serde_json::json!({
            "ablation": name,
            "score": report.sensitivity.score(),
            "improved": matches!(
                report.sensitivity,
                Sensitivity::Finite { improved: true, .. }
            ),
        }));
    }
    opts.write_json("ablations.json", &rows);
}
