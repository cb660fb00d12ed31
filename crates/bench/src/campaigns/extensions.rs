//! Extensions that score one altered configuration per chain against a
//! baseline: experiments the paper names as discussion points,
//! limitations or future work.

use stabl::report::RunSummary;
use stabl::{
    report_from_runs, run_protocol, Chain, ClientMode, FaultAction, FaultSchedule, FaultWindow,
    LinkFault, PaperSetup, RetryPolicy, ScenarioKind, WorkloadShape,
};
use stabl_sim::{
    ByzantineBehavior, ByzantineSpec, LatencyModel, LatencyTopology, NodeId, SimDuration,
};
use stabl_solana::{SolanaConfig, SolanaNode};
use stabl_stats::SeedSequence;

use crate::{sensitivity_table, BenchOpts, Group, Job};

/// The single-slow-node experiment.
///
/// §4 of the paper argues that leader-based chains suffer from one slow
/// node ("Redbelly is not affected by the slow responsive node that
/// affects Solana because no individual slow node can significantly slow
/// down the DBFT consensus protocol"). The paper only *crashes* nodes;
/// this extension slows one non-client validator down (300 ms extra on
/// every message it sends, between the usual fault and recovery marks)
/// and scores all five chains.
pub fn slow_node(opts: &BenchOpts) {
    let setup = &opts.setup;
    eprintln!("slow-node extension ({})", setup.horizon);
    let extra = SimDuration::from_millis(300);
    let groups = Chain::ALL
        .iter()
        .map(|&chain| {
            let mut config = setup.run_config(chain, ScenarioKind::Baseline);
            config.faults =
                FaultSchedule::slowdown(setup.victims(1), extra, setup.fault_at, setup.recover_at);
            Group::pair(
                Job::scenario(setup, chain, ScenarioKind::Baseline),
                Job::config(format!("{}/slow-node", chain.name()), chain, config),
            )
        })
        .collect();
    let groups = opts.engine().run_groups(groups);
    let reports: Vec<_> = Chain::ALL
        .iter()
        .zip(&groups)
        // Reuse the crash kind for reporting (the label is printed
        // separately).
        .map(|(&chain, group)| group.report(chain, ScenarioKind::Crash))
        .collect();
    println!(
        "\n{}",
        sensitivity_table(
            "Extension — one node slowed by 300 ms (133 s → 266 s)",
            &reports
        )
    );
    let rows: Vec<serde_json::Value> = reports
        .iter()
        .map(|r| {
            serde_json::json!({
                "chain": r.chain.name(),
                "score": r.sensitivity.score(),
            })
        })
        .collect();
    opts.write_json("ext_slow_node.json", &rows);
}

/// Geo-distributed (WAN) deployment.
///
/// The paper's testbed is a single cluster (5–10 ms links) and it argues
/// (§8, citing its Redbelly evaluation) that small-scale results carry
/// over. This extension re-runs the baseline and crash scenarios with
/// WAN-like links (40–120 ms one way) and compares latency profiles and
/// crash sensitivities across the two latency regimes.
pub fn wan(opts: &BenchOpts) {
    let lan = opts.setup.clone();
    let wan = PaperSetup {
        latency: LatencyModel::wan(),
        ..opts.setup.clone()
    };
    let groups = Chain::ALL
        .iter()
        .flat_map(|&chain| {
            // Five regions, nodes spread round-robin: LAN inside a
            // region, WAN across regions.
            let geo = |kind: ScenarioKind| {
                let mut config = lan.run_config(chain, kind);
                config.topology = Some(LatencyTopology::geo(5, lan.n));
                Job::config(
                    format!("{}/geo-{}", chain.name(), kind.name()),
                    chain,
                    config,
                )
            };
            [
                Group::scenario(&lan, chain, ScenarioKind::Crash),
                Group::scenario(&wan, chain, ScenarioKind::Crash),
                Group::pair(geo(ScenarioKind::Baseline), geo(ScenarioKind::Crash)),
            ]
        })
        .collect();
    let groups = opts.engine().run_groups(groups);
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "chain", "LAN p50", "WAN p50", "geo p50", "LAN crash", "WAN crash", "geo crash"
    );
    let mut artefact = Vec::new();
    for (&chain, regimes) in Chain::ALL.iter().zip(groups.chunks(3)) {
        let reports: Vec<_> = regimes
            .iter()
            .map(|regime| regime.report(chain, ScenarioKind::Crash))
            .collect();
        let [lan_report, wan_report, geo_report] = &reports[..] else {
            unreachable!("three latency regimes per chain");
        };
        let p50 = |s: &RunSummary| {
            s.p50_latency
                .map(|p| format!("{p:.3}s"))
                .unwrap_or_else(|| "—".into())
        };
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12}",
            chain.name(),
            p50(&lan_report.baseline),
            p50(&wan_report.baseline),
            p50(&geo_report.baseline),
            lan_report.sensitivity.to_string(),
            wan_report.sensitivity.to_string(),
            geo_report.sensitivity.to_string(),
        );
        artefact.push(serde_json::json!({
            "chain": chain.name(),
            "lan_p50": lan_report.baseline.p50_latency,
            "wan_p50": wan_report.baseline.p50_latency,
            "geo_p50": geo_report.baseline.p50_latency,
            "lan_crash": lan_report.sensitivity.score(),
            "wan_crash": wan_report.sensitivity.score(),
            "geo_crash": geo_report.sensitivity.score(),
        }));
    }
    opts.write_json("ext_wan.json", &artefact);
}

/// The credence.js-style quorum client — the paper's §9 future work
/// ("evaluating Byzantine fault tolerance using recommended specialized
/// client libraries, such as credence.js").
///
/// Three client strategies face one *withholding* Byzantine RPC node
/// (it participates in consensus correctly but never confirms commits
/// to its clients):
///
/// * the SDK default (trust one node) loses every transaction routed
///   through the liar;
/// * the paper's wait-for-all secure client is *worse*: every client
///   whose replica set contains the liar stalls;
/// * a credence-style quorum client (accept at `t + 1` of `t + 2`
///   observations) rides through it — and is faster than wait-for-all
///   even without an adversary.
pub fn credence(opts: &BenchOpts) {
    let setup = &opts.setup;
    eprintln!("credence extension ({})", setup.horizon);
    let groups = Chain::ALL
        .iter()
        .map(|&chain| {
            let byzantine = |mode: ClientMode, label: &str| {
                let mut config = setup.run_config(chain, ScenarioKind::Baseline);
                config.client_mode = mode;
                // Node 2 (client-facing) withholds confirmations.
                config.byzantine_rpc = vec![NodeId::new(2)];
                Job::config_with_cpu(format!("{}/{label}", chain.name()), chain, config, 2.0)
            };
            Group::new(
                Job::config_with_cpu(
                    format!("{}/honest-baseline", chain.name()),
                    chain,
                    setup.run_config(chain, ScenarioKind::Baseline),
                    2.0,
                ),
                vec![
                    byzantine(ClientMode::Single, "single"),
                    byzantine(ClientMode::paper_secure(setup.n), "wait-all"),
                    byzantine(ClientMode::credence(3), "credence"),
                ],
            )
        })
        .collect();
    let groups = opts.engine().run_groups(groups);
    println!(
        "{:<10} {:>16} {:>16} {:>16} {:>14}",
        "chain", "single: lost", "wait-all: lost", "credence: lost", "credence Δμ"
    );
    let mut artefact = Vec::new();
    for (&chain, group) in Chain::ALL.iter().zip(&groups) {
        let [single, wait_all, credence] = &group.altered[..] else {
            unreachable!("three client strategies per chain");
        };
        let report = report_from_runs(chain, ScenarioKind::SecureClient, &group.baseline, credence);
        println!(
            "{:<10} {:>15.1}% {:>15.1}% {:>15.1}% {:>14}",
            chain.name(),
            (1.0 - single.commit_ratio()) * 100.0,
            (1.0 - wait_all.commit_ratio()) * 100.0,
            (1.0 - credence.commit_ratio()) * 100.0,
            report.sensitivity.to_string(),
        );
        artefact.push(serde_json::json!({
            "chain": chain.name(),
            "single_lost": 1.0 - single.commit_ratio(),
            "wait_all_lost": 1.0 - wait_all.commit_ratio(),
            "credence_lost": 1.0 - credence.commit_ratio(),
            "credence_vs_honest_baseline": report.sensitivity.score(),
        }));
    }
    println!(
        "\nΔμ compares the credence client under attack against an honest-network\n\
         single-client baseline: tolerating the liar costs little (and on some\n\
         chains quorum reads are even faster than trusting one node)."
    );
    opts.write_json("ext_credence.json", &artefact);
}

/// Stake centralisation.
///
/// The paper counts fault tolerance in *nodes* (its testbed distributes
/// stake uniformly). Real networks concentrate stake; for the chains
/// whose quorums are stake-weighted, "how many machines can fail" is the
/// wrong question. This extension crashes a single validator holding
/// 40 % of Solana's stake — far below the nominal t = 3 node threshold —
/// and contrasts it with crashing a minnow.
pub fn stake(opts: &BenchOpts) {
    let setup = &opts.setup;
    eprintln!("stake-centralisation extension ({})", setup.horizon);
    // Validator 9 (a fault-eligible back node) holds 40% of the stake.
    let config = SolanaConfig {
        stakes: Some(vec![1, 1, 1, 1, 1, 1, 1, 1, 1, 6]),
        ..SolanaConfig::default()
    };
    let salt = format!("SolanaNode|{config:?}");
    let job = |label: &str, crash: Option<u32>| {
        let mut run_cfg = setup.run_config(Chain::Solana, ScenarioKind::Baseline);
        if let Some(node) = crash {
            run_cfg.faults = FaultSchedule::crash(vec![NodeId::new(node)], setup.fault_at);
        }
        Job::custom(format!("Solana/{label}"), run_cfg, salt.clone(), {
            let config = config.clone();
            move |cfg| run_protocol::<SolanaNode>(cfg, config.clone())
        })
    };
    let groups = opts.engine().run_groups(vec![Group::new(
        job("stake-baseline", None),
        vec![job("whale-crash", Some(9)), job("minnow-crash", Some(8))],
    )]);
    let reports = groups[0].reports(Chain::Solana, ScenarioKind::Crash);
    let [whale_report, minnow_report] = &reports[..] else {
        unreachable!("two crashes against one baseline");
    };
    println!(
        "crash 1 minnow (6.7% stake): sensitivity {}",
        minnow_report.sensitivity
    );
    println!(
        "crash 1 whale (40% stake):   sensitivity {}",
        whale_report.sensitivity
    );
    println!(
        "\nOne machine with 40% of the stake takes the cluster below the 2/3\n\
         supermajority: node-count thresholds (t = 3 of 10 here) say nothing\n\
         once stake concentrates."
    );
    opts.write_json(
        "ext_stake.json",
        &serde_json::json!({
            "minnow_crash": minnow_report.sensitivity.score(),
            "whale_crash": whale_report.sensitivity.score(),
            "whale_lost_liveness": whale_report.altered.lost_liveness,
        }),
    );
}

/// Fluctuating workloads.
///
/// The paper's §8 names request bursts and fluctuating workloads as an
/// explicit limitation of its constant-rate methodology. This extension
/// subjects every chain to (i) periodic 4× bursts and (ii) a linear ramp
/// from 200 to 400 TPS, without any fault, and reports the sensitivity
/// relative to the constant-rate baseline — i.e. how gracefully each
/// chain absorbs load variation.
///
/// Generation rides the `stabl-workload` grid generator, so these cells
/// are byte-identical to the pre-subsystem artifact; the stochastic
/// production model is exercised by `ext_contention` instead.
pub fn workload_stress(opts: &BenchOpts) {
    let setup = &opts.setup;
    eprintln!("workload-stress extension ({})", setup.horizon);
    let shapes = [
        (
            "bursts (4x for 5 s every 60 s)",
            WorkloadShape::Burst {
                period: SimDuration::from_secs(60),
                burst_len: SimDuration::from_secs(5),
                factor: 4,
            },
        ),
        (
            "ramp (200 → 400 TPS)",
            WorkloadShape::Ramp {
                end_tps_per_client: 80,
            },
        ),
    ];
    // One baseline per chain, shared by both shapes.
    let groups = Chain::ALL
        .iter()
        .map(|&chain| {
            let shaped = shapes.iter().map(|(label, shape)| {
                let mut config = setup.run_config(chain, ScenarioKind::Baseline);
                config.workload.shape = *shape;
                Job::config(format!("{}/{label}", chain.name()), chain, config)
            });
            Group::new(
                Job::scenario(setup, chain, ScenarioKind::Baseline),
                shaped.collect(),
            )
        })
        .collect();
    let groups = opts.engine().run_groups(groups);
    let per_chain: Vec<_> = Chain::ALL
        .iter()
        .zip(&groups)
        .map(|(&chain, group)| group.reports(chain, ScenarioKind::Baseline))
        .collect();
    let mut artefact = Vec::new();
    for (s, (label, _)) in shapes.iter().enumerate() {
        let reports: Vec<_> = per_chain.iter().map(|shaped| shaped[s].clone()).collect();
        println!(
            "\n{}",
            sensitivity_table(&format!("Extension — {label}"), &reports)
        );
        for r in &reports {
            artefact.push(serde_json::json!({
                "shape": label,
                "chain": r.chain.name(),
                "score": r.sensitivity.score(),
                "unresolved": r.altered.unresolved,
                "lost_liveness": r.altered.lost_liveness,
            }));
        }
    }
    opts.write_json("ext_workload_stress.json", &artefact);
}

/// Sensitivity at larger network sizes.
///
/// The paper's future work asks how sensitivity evolves in larger
/// networks, "especially for probabilistic consensus protocols that rely
/// on the law of large numbers". This extension sweeps the crash
/// scenario over n ∈ {10, 16, 22} validators (5 clients throughout,
/// faults on trailing nodes, f = t_B(n)).
pub fn scale_sweep(opts: &BenchOpts) {
    const SIZES: [usize; 3] = [10, 16, 22];
    // Each sweep point gets its own decorrelated seed from the audited
    // derivation path (index 0 = the base seed itself for n = SIZES[0]).
    let seeds = SeedSequence::new(opts.setup.seed);
    let groups = SIZES
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| {
            let setup = PaperSetup {
                n,
                seed: seeds.seed(i),
                ..opts.setup.clone()
            };
            Group::scenario_per_chain(&setup, ScenarioKind::Crash)
        })
        .collect();
    let groups = opts.engine().run_groups(groups);
    println!(
        "{:<10} {:>6} {:>6} {:>14} {:>14}",
        "chain", "n", "f=t", "crash score", "baseline p50"
    );
    let mut artefact = Vec::new();
    for (n, groups) in SIZES.into_iter().zip(groups.chunks(Chain::ALL.len())) {
        for (&chain, group) in Chain::ALL.iter().zip(groups) {
            let report = group.report(chain, ScenarioKind::Crash);
            println!(
                "{:<10} {:>6} {:>6} {:>14} {:>14}",
                chain.name(),
                n,
                chain.tolerated_faults(n),
                report.sensitivity.to_string(),
                report
                    .baseline
                    .p50_latency
                    .map(|p| format!("{p:.3}s"))
                    .unwrap_or_else(|| "—".into()),
            );
            artefact.push(serde_json::json!({
                "chain": chain.name(),
                "n": n,
                "f": chain.tolerated_faults(n),
                "score": report.sensitivity.score(),
            }));
        }
    }
    opts.write_json("ext_scale_sweep.json", &artefact);
}

/// The composed-adversity (chaos) experiment.
///
/// The paper studies each failure class in isolation; real outages
/// compose them. This extension drives every chain through one
/// schedule combining, between the usual fault and recovery marks:
///
/// * **message-level degradation** — 5 % loss, 5 % duplication and 5 %
///   reordering on every link;
/// * **a flapping asymmetric partition** — all inbound traffic to one
///   back node severed in two windows (outbound stays up);
/// * **a slow node** — +200 ms on everything another back node sends;
/// * **an equivocating Byzantine node** — a third back node replays
///   stale payloads to half its peers;
///
/// while the clients run a retry policy (timeout, bounded exponential
/// backoff, resubmission to alternate nodes) instead of the paper's
/// fire-and-forget submission.
///
/// The artefact reports, per chain, the sensitivity against an honest
/// baseline plus the retry/give-up and drop/duplicate counters that
/// show the adversity actually engaged.
pub fn chaos(opts: &BenchOpts) {
    let setup = &opts.setup;
    eprintln!("chaos extension ({})", setup.horizon);

    // Scale the schedule to the campaign: adversity runs between the
    // standard fault and recovery marks; the flap cuts the second and
    // fourth quarters of that window (shared FaultWindow arithmetic —
    // the same helper the adversary search's genome operators use).
    let window = FaultWindow::new(setup.fault_at, setup.recover_at);

    // Distinct back nodes per role so the schedule validates: node 9
    // equivocates, node 8 loses its inbound links, node 7 is slow.
    let equivocator = NodeId::new(9);
    let flap_target = NodeId::new(8);
    let slow_node = NodeId::new(7);

    let degrade = LinkFault::all()
        .with_drop(0.05)
        .with_duplicate(0.05)
        .with_reorder(0.05, SimDuration::from_millis(30));
    let inbound_cut = LinkFault::from_parts(
        None,
        Some(vec![flap_target]),
        1.0,
        0.0,
        0.0,
        SimDuration::ZERO,
    );
    let flap_early = window.slice(1, 4);
    let flap_late = window.slice(3, 4);
    let schedule = FaultSchedule::link_degrade(degrade, window.at, window.until)
        .and(FaultAction::LinkDegrade {
            fault: inbound_cut.clone(),
            at: flap_early.at,
            until: flap_early.until,
        })
        .and(FaultAction::LinkDegrade {
            fault: inbound_cut,
            at: flap_late.at,
            until: flap_late.until,
        })
        .and(FaultAction::Slowdown {
            nodes: vec![slow_node],
            extra: SimDuration::from_millis(200),
            at: window.at,
            until: window.until,
        });

    // Retry timings scale with the horizon so quick profiles still
    // exercise resubmission (full campaign: 10 s timeout).
    let timeout = SimDuration::from_micros((setup.horizon.as_micros() / 40).max(1_000_000));
    let retry = RetryPolicy {
        timeout,
        max_retries: 3,
        backoff_base: timeout / 4,
        backoff_factor_permille: 2000,
        backoff_cap: timeout,
    };

    let groups = Chain::ALL
        .iter()
        .map(|&chain| {
            let mut config = setup.run_config(chain, ScenarioKind::Baseline);
            config.faults = schedule.clone();
            config.byzantine = ByzantineSpec::new([equivocator], ByzantineBehavior::Equivocate);
            config.retry = Some(retry);
            Group::pair(
                Job::scenario(setup, chain, ScenarioKind::Baseline),
                Job::config(format!("{}/chaos", chain.name()), chain, config),
            )
        })
        .collect();
    let groups = opts.engine().run_groups(groups);

    let reports: Vec<_> = Chain::ALL
        .iter()
        .zip(&groups)
        // Reuse the crash kind for reporting (the label is printed
        // separately).
        .map(|(&chain, group)| group.report(chain, ScenarioKind::Crash))
        .collect();
    println!(
        "\n{}",
        sensitivity_table(
            "Extension — composed chaos (loss + flap + slow + equivocation), retrying clients",
            &reports
        )
    );
    println!(
        "{:<10} {:>9} {:>9} {:>11} {:>12} {:>12}",
        "chain", "retries", "give-ups", "unresolved", "link drops", "link dups"
    );
    let mut artefact = Vec::new();
    for (report, group) in reports.iter().zip(&groups) {
        let (_, chaos) = group.as_pair();
        println!(
            "{:<10} {:>9} {:>9} {:>11} {:>12} {:>12}",
            report.chain.name(),
            chaos.retries,
            chaos.give_ups,
            chaos.unresolved,
            chaos.stats.messages_dropped_link,
            chaos.stats.messages_duplicated_link,
        );
        artefact.push(serde_json::json!({
            "chain": report.chain.name(),
            "score": report.sensitivity.score(),
            "retries": chaos.retries,
            "give_ups": chaos.give_ups,
            "unresolved": chaos.unresolved,
            "messages_dropped_link": chaos.stats.messages_dropped_link,
            "messages_duplicated_link": chaos.stats.messages_duplicated_link,
            "messages_reordered_link": chaos.stats.messages_reordered_link,
        }));
    }
    opts.write_json("ext_chaos.json", &artefact);
}
