//! Configuration of the simulated Solana validator.

use stabl_sim::SimDuration;

use crate::EpochSchedule;

/// Tunables of the slot clock, leader pipeline, voting/rooting and
/// Epoch-Accounts-Hash machinery of a simulated Solana validator.
///
/// Defaults model Solana v1.18.1 booted by the repository deployment
/// scripts (warmup epochs enabled) on the paper's testbed.
#[derive(Clone, Debug)]
pub struct SolanaConfig {
    /// Slot duration (mainnet: 400 ms).
    pub slot_duration: SimDuration,
    /// Epoch schedule (warmup by default — the precondition of the EAH
    /// panic the paper hit).
    pub schedule: EpochSchedule,
    /// Seed of the leader schedule.
    pub leader_seed: u64,
    /// How many upcoming leaders (beyond the current slot's) receive
    /// forwarded transactions.
    pub forward_lookahead: u64,
    /// Maximum transactions a leader packs into one slot's block (the
    /// banking-stage compute budget of a 4-vCPU validator; well above
    /// the 80 tx/slot baseline load but tight enough that dead-leader
    /// backlogs take several slots to drain).
    pub max_block_txs: usize,
    /// Maximum pending transactions re-forwarded per slot by one RPC
    /// node's outbox.
    pub resend_batch: usize,
    /// Outbox capacity per node.
    pub outbox_capacity: usize,
    /// Votes required to confirm a block (2/3 supermajority of 10 → 7).
    pub vote_quorum_permille: u32,
    /// How many slots behind the highest confirmed block the root trails
    /// (freeze-to-root distance).
    pub root_lag_slots: u64,
    /// Per-validator stakes; `None` means uniform (the paper's testbed).
    /// Leader slots and vote quorums are stake-weighted.
    pub stakes: Option<Vec<u64>>,
}

impl Default for SolanaConfig {
    fn default() -> Self {
        SolanaConfig {
            slot_duration: SimDuration::from_millis(400),
            schedule: EpochSchedule::warmup(),
            leader_seed: 0x0050_1a7a_5eed,
            forward_lookahead: 2,
            max_block_txs: 120,
            resend_batch: 1_000,
            outbox_capacity: 200_000,
            vote_quorum_permille: 667,
            root_lag_slots: 8,
            stakes: None,
        }
    }
}

impl SolanaConfig {
    /// Votes required to confirm a block in an `n`-validator network
    /// (uniform-stake form).
    pub fn vote_quorum(&self, n: usize) -> usize {
        (n * self.vote_quorum_permille as usize) / 1000 + 1
    }

    /// The per-validator stakes in force for an `n`-validator network.
    ///
    /// # Panics
    ///
    /// Panics if explicit stakes were configured with the wrong length.
    pub fn stakes_for(&self, n: usize) -> Vec<u64> {
        match &self.stakes {
            Some(stakes) => {
                assert_eq!(stakes.len(), n, "stakes must cover every validator");
                stakes.clone()
            }
            None => vec![1; n],
        }
    }

    /// Stake required for a supermajority, given `total` stake.
    pub fn stake_quorum(&self, total: u64) -> u64 {
        total * self.vote_quorum_permille as u64 / 1000 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_consistent() {
        let cfg = SolanaConfig::default();
        assert_eq!(cfg.vote_quorum(10), 7, "2/3 supermajority of ten");
        assert_eq!(cfg.vote_quorum(4), 3);
        // The root must be able to enter an epoch before its EAH start
        // check even in the shortest warmup epoch (32 slots, check at
        // one quarter = 8 slots).
        assert!(cfg.root_lag_slots <= cfg.schedule.slots_in_epoch(0) / 4);
        assert!(cfg.forward_lookahead >= 1);
    }
}
