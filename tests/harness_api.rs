//! Cross-crate integration tests of the public API: harness accounting,
//! fault plans, client modes and metric plumbing working together.

use stabl_suite::stabl::metrics::{Ecdf, Sensitivity};
use stabl_suite::stabl::{Chain, ClientMode, FaultSchedule, PaperSetup, RunConfig, ScenarioKind};
use stabl_suite::stabl_sim::{NodeId, SimDuration, SimTime};

#[test]
fn quick_config_commits_on_every_chain() {
    for chain in Chain::ALL {
        let result = chain.run(&RunConfig::quick(21));
        assert_eq!(
            result.submitted,
            result.latencies.len() + result.unresolved,
            "{chain}: accounting must balance"
        );
        assert!(result.commit_ratio() > 0.95, "{chain} commit ratio");
        let series = result.throughput();
        let total: u64 = series.bins().iter().map(|b| *b as u64).sum();
        assert_eq!(
            total as usize,
            result.latencies.len(),
            "{chain}: series vs commits"
        );
    }
}

#[test]
fn latency_profiles_are_chain_specific_but_sane() {
    // Every chain has its own latency profile; all commit the quick
    // workload within single-digit seconds at the median.
    for chain in Chain::ALL {
        let result = chain.run(&RunConfig::quick(22));
        let ecdf = result.ecdf().expect("commits");
        assert!(
            ecdf.min() > 0.0,
            "{chain}: latency includes the client link"
        );
        assert!(
            ecdf.quantile(0.5) < 8.0,
            "{chain}: median latency {:.2}s out of range",
            ecdf.quantile(0.5)
        );
        assert!(ecdf.quantile(0.5) <= ecdf.quantile(0.95));
    }
}

#[test]
fn secure_client_waits_for_the_slowest_replica() {
    let mut config = RunConfig::quick(23);
    config.client_mode = ClientMode::paper_secure(config.n);
    for chain in [Chain::Redbelly, Chain::Algorand] {
        let single = chain.run(&RunConfig::quick(23));
        let secure = chain.run(&config);
        let s = single.ecdf().expect("commits").mean();
        let m = secure.ecdf().expect("commits").mean();
        assert!(
            m > s * 0.8,
            "{chain}: secure mean {m} implausibly below single mean {s}"
        );
    }
}

#[test]
fn fault_plan_on_client_nodes_loses_their_transactions() {
    // The paper injects failures only on nodes without clients; this
    // checks the harness handles the opposite case gracefully: requests
    // to a crashed node are dropped and counted unresolved.
    let mut config = RunConfig::quick(24);
    config.faults = FaultSchedule::crash(vec![NodeId::new(0)], SimTime::from_secs(5));
    let result = Chain::Redbelly.run(&config);
    assert!(
        result.unresolved > 0,
        "client 0's submissions after 5 s are lost"
    );
    assert!(
        !result.lost_liveness,
        "the chain itself keeps committing the other clients' load"
    );
}

#[test]
fn paper_setup_runs_are_reproducible_and_seeded() {
    let a = PaperSetup::quick(60, 1).run(Chain::Aptos, ScenarioKind::Crash);
    let b = PaperSetup::quick(60, 1).run(Chain::Aptos, ScenarioKind::Crash);
    let c = PaperSetup::quick(60, 2).run(Chain::Aptos, ScenarioKind::Crash);
    assert_eq!(a.latencies, b.latencies, "same seed, same run");
    assert_ne!(a.latencies, c.latencies, "different seed, different run");
}

#[test]
fn sensitivity_of_identical_runs_is_zero() {
    let result = Chain::Solana.run(&RunConfig::quick(25));
    let ecdf = result.ecdf().expect("commits");
    let s = Sensitivity::from_ecdfs(&ecdf, &ecdf.clone());
    assert_eq!(s.score(), Some(0.0));
}

#[test]
fn ecdf_matches_run_statistics() {
    let result = Chain::Algorand.run(&RunConfig::quick(26));
    let ecdf = result.ecdf().expect("commits");
    assert_eq!(ecdf.len(), result.latencies.len());
    let mean: f64 = result.latencies.iter().sum::<f64>() / result.latencies.len() as f64;
    assert!((ecdf.mean() - mean).abs() < 1e-9);
    let rebuilt = Ecdf::new(result.latencies.clone()).expect("valid");
    assert_eq!(rebuilt.max(), ecdf.max());
}

#[test]
fn geo_topology_slows_cross_region_consensus() {
    use stabl_suite::stabl_sim::LatencyTopology;
    let mut geo = RunConfig::quick(28);
    geo.topology = Some(LatencyTopology::geo(5, 10));
    let local = Chain::Redbelly.run(&RunConfig::quick(28));
    let remote = Chain::Redbelly.run(&geo);
    assert_eq!(remote.unresolved, 0, "geo deployment still commits");
    let mean = |r: &stabl_suite::stabl::RunResult| r.ecdf().expect("commits").mean();
    assert!(
        mean(&remote) > mean(&local) * 1.3,
        "cross-region links must slow consensus: {} vs {}",
        mean(&remote),
        mean(&local)
    );
}

#[test]
fn longer_partitions_delay_more_transactions() {
    let run = |heal_secs: u64| {
        let mut config = RunConfig::quick(27);
        config.horizon = SimTime::from_secs(220);
        config.workload.end = SimTime::from_secs(200);
        config.stall_grace = SimDuration::from_secs(15);
        config.faults = FaultSchedule::partition(
            (6..10).map(NodeId::new).collect(),
            SimTime::from_secs(20),
            SimTime::from_secs(heal_secs),
        );
        Chain::Redbelly.run(&config)
    };
    let short = run(30);
    let long = run(60);
    assert!(!short.lost_liveness && !long.lost_liveness);
    let mean = |r: &stabl_suite::stabl::RunResult| r.ecdf().expect("commits").mean();
    assert!(
        mean(&long) > mean(&short),
        "a longer partition must delay more transactions: {} vs {}",
        mean(&long),
        mean(&short)
    );
}
