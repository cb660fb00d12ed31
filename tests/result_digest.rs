//! Byte-identity of run results as a tested contract: the SHA-256 of the
//! serialised [`RunResult`] of 5 chains × {baseline, transient} at
//! `PaperSetup::quick(20, 7)`.
//!
//! A change that is meant to keep results (a refactor, a speed-up) must
//! leave every constant alone; a change that is meant to move them
//! re-records the table at the commit that moves them and says so.

use stabl_suite::stabl::{Chain, PaperSetup, ScenarioKind};
use stabl_suite::stabl_types::Sha256;

const PINNED: [(Chain, ScenarioKind, &str); 10] = [
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
        Chain::Solana,
        ScenarioKind::Baseline,
        "411de47a537bc3fd5f0e26a608ca8fd614342e0c5bb97c89f2259c42f183af32",
    ),
    (
        Chain::Solana,
        ScenarioKind::Transient,
        "fdb93a81f53ce1ded2535864a626bb1314df759d02235598f7fd96fb2e47bca4",
    ),
];

#[test]
fn serialised_run_results_match_the_pinned_digests() {
    let setup = PaperSetup::quick(20, 7);
    let mut drifted = Vec::new();
    for (chain, kind, pinned) in PINNED {
        let result = setup.run(chain, kind);
        let json = serde_json::to_string(&result).expect("RunResult serialises");
        let mut hasher = Sha256::new();
        hasher.update(json.as_bytes());
        let digest = hasher.finalize().to_string();
        if digest != pinned {
            drifted.push(format!("{chain}/{kind:?}: {digest} (pinned {pinned})"));
        }
    }
    assert!(
        drifted.is_empty(),
        "serialised RunResult drifted from the pinned bytes:\n{}",
        drifted.join("\n")
    );
}
