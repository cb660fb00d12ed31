//! Agreement across replicas, checked offline on whole runs: no node
//! commits a transaction twice, and any two nodes' commit sequences are
//! prefix-consistent (the shorter is a prefix of the longer) — under no
//! fault, a transient failure of `t_B + 1` back nodes, a partition of
//! the same nodes, and one Byzantine back node (within every chain's
//! `t_B`) deviating in each of the four ways.
//!
//! The pinned digests of `result_digest.rs` fix what *clients* observe
//! at one seed; this is the invariant the shared `stabl_types::Replica`
//! executor, and each chain's own execution path, must keep at any seed.

use stabl_suite::stabl::{Chain, PaperSetup, RunConfig, ScenarioKind};
use stabl_suite::stabl_algorand::AlgorandNode;
use stabl_suite::stabl_aptos::AptosNode;
use stabl_suite::stabl_avalanche::AvalancheNode;
use stabl_suite::stabl_redbelly::RedbellyNode;
use stabl_suite::stabl_sim::{
    ByzantineBehavior, ByzantineSpec, NodeId, Protocol, SimBuilder, SimDuration,
};
use stabl_suite::stabl_solana::SolanaNode;
use stabl_suite::stabl_types::{Transaction, TxId};

/// Runs `config`'s workload and fault schedule on protocol `P` directly
/// on the kernel (the harness keeps only first commits); returns each
/// node's commit sequence.
fn commit_sequences<P>(config: &RunConfig) -> Vec<Vec<TxId>>
where
    P: Protocol<Request = Transaction, Commit = TxId>,
    P::Config: Default,
{
    let mut sim = SimBuilder::new(config.n, config.seed)
        .byzantine(config.byzantine.clone())
        .build::<P>(P::Config::default());
    config.faults.schedule(&mut sim);
    for submission in config.workload.generate_seeded(config.seed) {
        for node in config
            .client_mode
            .nodes_for(submission.client, config.workload.clients)
        {
            sim.schedule_request(submission.at, node, submission.transaction);
        }
    }
    sim.run_until(config.horizon);
    let mut sequences = vec![Vec::new(); config.n];
    for record in sim.commits() {
        sequences[record.node.index()].push(record.commit);
    }
    sequences
}

fn assert_agreement(label: &str, sequences: &[Vec<TxId>]) {
    for (node, sequence) in sequences.iter().enumerate() {
        let mut seen = std::collections::HashSet::new();
        for id in sequence {
            assert!(seen.insert(id), "{label}: node {node} committed {id} twice");
        }
    }
    let longest = sequences
        .iter()
        .max_by_key(|s| s.len())
        .expect("n > 0 nodes");
    assert!(!longest.is_empty(), "{label}: nothing committed anywhere");
    // Prefix-consistency with the longest sequence implies it pairwise.
    for (node, sequence) in sequences.iter().enumerate() {
        let diverges_at = sequence.iter().zip(longest).position(|(a, b)| a != b);
        assert_eq!(
            diverges_at, None,
            "{label}: node {node} left the common order"
        );
    }
}

fn check<P>(chain: Chain)
where
    P: Protocol<Request = Transaction, Commit = TxId>,
    P::Config: Default,
{
    // n = 10, 40 s, the paper-standard stream; the transient and
    // partition scenarios hit `t_B + 1` back nodes from 13 s to 26 s.
    let setup = PaperSetup::quick(40, 11);
    for kind in [
        ScenarioKind::Baseline,
        ScenarioKind::Transient,
        ScenarioKind::Partition,
    ] {
        let sequences = commit_sequences::<P>(&setup.run_config(chain, kind));
        assert_agreement(&format!("{chain}/{}", kind.name()), &sequences);
    }
    // One Byzantine node is within every chain's `t_B` at n = 10, so it
    // must not break agreement — its own replica included, since it
    // still runs the honest protocol on honest inbound traffic.
    for behavior in [
        ByzantineBehavior::Mutate,
        ByzantineBehavior::Equivocate,
        ByzantineBehavior::Withhold,
        ByzantineBehavior::Delay(SimDuration::from_millis(700)),
    ] {
        let mut config = setup.run_config(chain, ScenarioKind::Baseline);
        config.byzantine = ByzantineSpec::new([NodeId::new(5)], behavior);
        let sequences = commit_sequences::<P>(&config);
        assert_agreement(&format!("{chain}/{behavior:?} on node 5"), &sequences);
    }
}

/// All five models give the strong order (identical per-node commit
/// sequences up to length), so none needs a weaker assertion.
#[test]
fn replicas_agree_on_every_chain() {
    check::<AlgorandNode>(Chain::Algorand);
    check::<AptosNode>(Chain::Aptos);
    check::<AvalancheNode>(Chain::Avalanche);
    check::<RedbellyNode>(Chain::Redbelly);
    check::<SolanaNode>(Chain::Solana);
}
