//! Byte-identity of run results as a tested contract: the SHA-256 of the
//! serialised [`RunResult`] at `PaperSetup::quick(20, 7)` of
//!
//! * 5 chains × {baseline, transient, partition};
//! * 5 chains × the four Byzantine behaviours on node 9 under the same
//!   transient schedule. Node 9 is also a transient victim, so these
//!   rows cover held-back sends dying with their sender's epoch and the
//!   stale payload resetting on restart;
//! * 5 chains × one composed schedule: lossy, duplicating, reordering
//!   links everywhere, two flaps cutting node 8's inbound links, node 7
//!   slowed and node 9 partitioned inside the degrade window. These rows
//!   cover a partition and a sever stacked on links that a probabilistic
//!   rule also matches.
//!
//! A change that is meant to keep results (a refactor, a speed-up) must
//! leave every constant alone; a change that is meant to move them
//! re-records the table at the commit that moves them and says so.

use stabl_suite::stabl::{
    Chain, FaultAction, FaultSchedule, FaultWindow, PaperSetup, RunResult, ScenarioKind,
};
use stabl_suite::stabl_sim::{ByzantineBehavior, ByzantineSpec, LinkFault, NodeId, SimDuration};
use stabl_suite::stabl_types::Sha256;

const PINNED: [(Chain, ScenarioKind, &str); 15] = [
    (
        Chain::Algorand,
        ScenarioKind::Baseline,
        "03c2f7932ee59d18ac0e93409093c493d641b0ffcfd5dfc6df8999d2640826e4",
    ),
    (
        Chain::Algorand,
        ScenarioKind::Transient,
        "135de38ab0695164ddec3db04f834bcdb5e7b6b7538c55ef9a271a5d1560aad3",
    ),
    (
        Chain::Algorand,
        ScenarioKind::Partition,
        "b8bea65ceb2e42c4705c7bad274d0b8b7d2ec5c89bef76afd022d443769333c3",
    ),
    (
        Chain::Aptos,
        ScenarioKind::Baseline,
        "a1d83efe107728c74700c33c03b9d2eebe17c38b4e95e6ba82f8d6bbc0761c7a",
    ),
    (
        Chain::Aptos,
        ScenarioKind::Transient,
        "08bc36a868d125382ba473a79cc00d54a115234b4b079f561671f1e557a68a33",
    ),
    (
        Chain::Aptos,
        ScenarioKind::Partition,
        "7195dd6ed1bcc06660d7ba08cf8062b5ff10082f386ac832c9b52d6062a81b93",
    ),
    (
        Chain::Avalanche,
        ScenarioKind::Baseline,
        "cf57ed279f5d79400aa74e45cc987cd94cddb043ba0967ae816eb81290dfe768",
    ),
    (
        Chain::Avalanche,
        ScenarioKind::Transient,
        "1b4934afe96b413494077ceba48bcb7c51ee7f6a6190aeb4dd7a5162d1ed7bb6",
    ),
    (
        Chain::Avalanche,
        ScenarioKind::Partition,
        "9d5e015f76cf7e3bc3a179664ee53a903cc45c010463f1820120c605bdf6f7ce",
    ),
    (
        Chain::Redbelly,
        ScenarioKind::Baseline,
        "5320a49ebc05a9313e7b53e7162897a7c07f943205f1be571adce52cfa3db692",
    ),
    (
        Chain::Redbelly,
        ScenarioKind::Transient,
        "e0b698e259740a8176b7f4e4a7afb5d0c2639adac748b3e95b2f3f6503dd2e54",
    ),
    (
        Chain::Redbelly,
        ScenarioKind::Partition,
        "d0e4a40e7d808e1221055394fe54ebfec047f0eff59f30627832761295a9d91f",
    ),
    (
        Chain::Solana,
        ScenarioKind::Baseline,
        "411de47a537bc3fd5f0e26a608ca8fd614342e0c5bb97c89f2259c42f183af32",
    ),
    (
        Chain::Solana,
        ScenarioKind::Transient,
        "fdb93a81f53ce1ded2535864a626bb1314df759d02235598f7fd96fb2e47bca4",
    ),
    (
        Chain::Solana,
        ScenarioKind::Partition,
        "240a78f516ec5a008cfdf6163188fcf73d169d01eb14e81e84bcd7ba6ae46650",
    ),
];

const DELAY: ByzantineBehavior = ByzantineBehavior::Delay(SimDuration::from_millis(700));

/// Recorded on the kernel that still ran Byzantine nodes through a
/// protocol wrapper; the kernel's own deviation rule must reproduce
/// every one of them.
const PINNED_BYZANTINE: [(Chain, ByzantineBehavior, &str); 20] = [
    (
        Chain::Algorand,
        ByzantineBehavior::Mutate,
        "1e2127801887d2c3832e5c9b01a57afc5c73705b107b85977eeb89dd41cbde8f",
    ),
    (
        Chain::Algorand,
        ByzantineBehavior::Equivocate,
        "8bb1d87c360dbe1ed1c604580d61e15efda1887a518dfa61ca706955e4ceffb9",
    ),
    (
        Chain::Algorand,
        ByzantineBehavior::Withhold,
        "0de5cf333345ad23c6e3780f4d9e0aba80071b9deea14cd31352408860a6d3b5",
    ),
    (
        Chain::Algorand,
        DELAY,
        "5192bb020651e08f873e39a607d5d1b6900829c208914c07d09cf2fa747fbb6f",
    ),
    (
        Chain::Aptos,
        ByzantineBehavior::Mutate,
        "2df9736559f0807d38fdd8ee671bc632ef71a05d54d398799a5881771bba9f42",
    ),
    (
        Chain::Aptos,
        ByzantineBehavior::Equivocate,
        "69e843511d3c0f5ec261e4d8311a9d99fc6f0f500bec858855db9ebefb2bff3e",
    ),
    (
        Chain::Aptos,
        ByzantineBehavior::Withhold,
        "d4a30ce1c6dfebe0ba2dc59632f9d86c670ada1623e35472cc310eb18e786257",
    ),
    (
        Chain::Aptos,
        DELAY,
        "441a3aa5bb20ecc37dc05ea70e321fade1a9ff8ee1f252c0aa46dce58d49a02e",
    ),
    (
        Chain::Avalanche,
        ByzantineBehavior::Mutate,
        "4f61e43ba1acd99f3de70947f8fdac54c5669544674e08bfddb78b509b4beec4",
    ),
    (
        Chain::Avalanche,
        ByzantineBehavior::Equivocate,
        "e910c27503020c703140c5ecabaf47a9659e5647515eab6b254e471b51c43465",
    ),
    (
        Chain::Avalanche,
        ByzantineBehavior::Withhold,
        "80099ea7d1277ae9baf8535d132dd81dffbcd757613b52b90b3883fa79906229",
    ),
    (
        Chain::Avalanche,
        DELAY,
        "58fab9a0c102d26b333f7c378a5e0aee66878ef1a0d6b8380b3a9b01974b843a",
    ),
    (
        Chain::Redbelly,
        ByzantineBehavior::Mutate,
        "bd88f6cc526513437b9c01c078ec0e823b093c34811b1acc7b81d593ce3fbb7c",
    ),
    (
        Chain::Redbelly,
        ByzantineBehavior::Equivocate,
        "8e4cd94ce05ac775e81d6e2cfdc540261fb1d5f494460cdc3fca4c2e7c4c9d9f",
    ),
    (
        Chain::Redbelly,
        ByzantineBehavior::Withhold,
        "e137a440334bc53ab46f44ddd7f90e6a7443e6f15513222a3e48f38d2df14e6e",
    ),
    (
        Chain::Redbelly,
        DELAY,
        "8a48811937e0ff0f1face13099565b92bc333ff06153e2aa3d01f9c15d4c0b6e",
    ),
    (
        Chain::Solana,
        ByzantineBehavior::Mutate,
        "4b74a6cd5f0c594cfbac7e5bf576139e21eaecf48a4721441e3e7b67f56c74b8",
    ),
    (
        Chain::Solana,
        ByzantineBehavior::Equivocate,
        "e31bcc9881c919d2a703cda843cb03de6b02ad2e02b247e0c53471919ef9c62f",
    ),
    (
        Chain::Solana,
        ByzantineBehavior::Withhold,
        "4f8d3f0ed82b9e114ba59b4744be861a9f4ea9d98d4939867a7b82d21bf1da81",
    ),
    (
        Chain::Solana,
        DELAY,
        "07b548bb8e16e04b8234e6434f4519623ef39de2506e4f22383c0c73c6314b0c",
    ),
];

/// Recorded on the kernel that still kept partitions apart from link
/// faults, in their own rule list, handle map and drop checks.
const PINNED_COMPOSED: [(Chain, &str); 5] = [
    (
        Chain::Algorand,
        "731ce2d86957baa17ccbb1a1171cf8e31ce3fb3e3fb9fc2efadf53c64b74d904",
    ),
    (
        Chain::Aptos,
        "cb051b3a677d42c4f2690fecedd6f68e8662aaafaace7ec0affeb81ba844c148",
    ),
    (
        Chain::Avalanche,
        "d50d848122bd84bfb52be241d9722bb64c974af33476432ddadf139964612cf2",
    ),
    (
        Chain::Redbelly,
        "44a670a033fb0826e6b79cc3a01ab0a9043a828e797f0c48e0ced0f0f33aaf91",
    ),
    (
        Chain::Solana,
        "612183c9f953efa5843003e8c3e3402ea2097860466a9b6a48c3d31df7fb8a8f",
    ),
];

/// The composed schedule of the `PINNED_COMPOSED` rows, laid out over
/// the setup's fault window like the `ext_chaos` campaign (without its
/// Byzantine node).
fn composed_schedule(setup: &PaperSetup) -> FaultSchedule {
    let window = FaultWindow::new(setup.fault_at, setup.recover_at);
    let degrade = LinkFault::all()
        .with_drop(0.05)
        .with_duplicate(0.05)
        .with_reorder(0.05, SimDuration::from_millis(30));
    let inbound_cut = LinkFault::from_parts(
        None,
        Some(vec![NodeId::new(8)]),
        1.0,
        0.0,
        0.0,
        SimDuration::ZERO,
    );
    let flap = |slice: FaultWindow| FaultAction::LinkDegrade {
        fault: inbound_cut.clone(),
        at: slice.at,
        until: slice.until,
    };
    // The middle third overlaps the first flap, so the link 9 → 8 is
    // both partitioned and severed for a while.
    let isolation = window.slice(1, 3);
    FaultSchedule::link_degrade(degrade, window.at, window.until)
        .and(flap(window.slice(1, 4)))
        .and(flap(window.slice(3, 4)))
        .and(FaultAction::Slowdown {
            nodes: vec![NodeId::new(7)],
            extra: SimDuration::from_millis(300),
            at: window.at,
            until: window.until,
        })
        .and(FaultAction::Partition {
            nodes: vec![NodeId::new(9)],
            at: isolation.at,
            heal_at: isolation.until,
        })
}

fn digest(result: &RunResult) -> String {
    let json = serde_json::to_string(result).expect("RunResult serialises");
    let mut hasher = Sha256::new();
    hasher.update(json.as_bytes());
    hasher.finalize().to_string()
}

#[test]
fn serialised_run_results_match_the_pinned_digests() {
    let setup = PaperSetup::quick(20, 7);
    let mut drifted = Vec::new();
    for (chain, kind, pinned) in PINNED {
        let digest = digest(&setup.run(chain, kind));
        if digest != pinned {
            drifted.push(format!("{chain}/{kind:?}: {digest} (pinned {pinned})"));
        }
    }
    for (chain, behavior, pinned) in PINNED_BYZANTINE {
        let mut config = setup.run_config(chain, ScenarioKind::Transient);
        config.byzantine = ByzantineSpec::new([NodeId::new(9)], behavior);
        let digest = digest(&chain.run(&config));
        if digest != pinned {
            drifted.push(format!(
                "{chain}/Transient + {behavior:?} on node 9: {digest} (pinned {pinned})"
            ));
        }
    }
    let composed = composed_schedule(&setup);
    for (chain, pinned) in PINNED_COMPOSED {
        let mut config = setup.run_config(chain, ScenarioKind::Baseline);
        config.faults = composed.clone();
        let digest = digest(&chain.run(&config));
        if digest != pinned {
            drifted.push(format!("{chain}/composed: {digest} (pinned {pinned})"));
        }
    }
    assert!(
        drifted.is_empty(),
        "serialised RunResult drifted from the pinned bytes:\n{}",
        drifted.join("\n")
    );
}
