//! A timing model of the Block-STM parallel executor.
//!
//! Block-STM (Gelashvili et al., PPoPP '23) executes the transactions of a
//! committed block speculatively in parallel and re-executes on conflict.
//! For the Stabl study only its *timing* matters: execution is a shared
//! per-node resource consumed by (i) committed blocks, (ii) the
//! validation + speculative dispatch of every client submission, and
//! (iii) `SEQUENCE_NUMBER_TOO_OLD` re-executions of transactions that
//! were already committed — the overhead the paper traces the secure
//! client's Aptos degradation to (§7).
//!
//! This type prices the work; the serial timeline blocks queue on
//! (each completes at `max(now, busy_until) + cost`) is the node's
//! [`Replica`](stabl_types::Replica), shared with the other chains.

use std::collections::BTreeMap;

use stabl_sim::{CpuMeter, SimDuration, SimTime};
use stabl_types::{AccountId, Block};

/// Half-life of the ancillary-load estimator.
const ANCILLARY_HALF_LIFE: SimDuration = SimDuration::from_secs(2);
/// Highest share of the executor ancillary work may claim: block
/// execution is stretched by at most `1 / (1 - CAP)`.
const CONTENTION_CAP: f64 = 0.75;

/// The Block-STM timing model: what a block costs to execute while it
/// shares the node's cores with *ancillary* speculative work.
///
/// Ancillary work (request validation, shared-mempool ingestion,
/// `SEQUENCE_NUMBER_TOO_OLD` re-executions) does not queue ahead of
/// blocks; it *stretches* them, processor-sharing style: a block's
/// execution takes `base / (1 − r)` where `r` is the recent ancillary
/// core utilisation (capped). This matches how Block-STM's worker
/// threads compete with the validation pipeline for the same vCPUs.
#[derive(Clone, Debug)]
pub struct BlockStmExecutor {
    per_tx: SimDuration,
    per_block: SimDuration,
    ancillary: CpuMeter,
    stale_reexecutions: u64,
    model_conflicts: bool,
    conflict_aborts: u64,
}

impl BlockStmExecutor {
    /// Creates an executor with the given per-transaction and per-block
    /// costs. With `model_conflicts`, transactions of a block that touch
    /// the same account (as sender or receiver) abort and re-execute
    /// speculatively, adding one `per_tx` charge per conflict; the
    /// paper's disjoint-account workload never conflicts, so it runs
    /// with the model off.
    pub fn new(per_tx: SimDuration, per_block: SimDuration, model_conflicts: bool) -> Self {
        BlockStmExecutor {
            per_tx,
            per_block,
            ancillary: CpuMeter::new(ANCILLARY_HALF_LIFE),
            stale_reexecutions: 0,
            model_conflicts,
            conflict_aborts: 0,
        }
    }

    /// Counts within-block read-write conflicts: for every account
    /// appearing `k > 1` times across the block's `{from, to}` sets,
    /// `k − 1` speculative executions abort and re-run — the optimistic
    /// Block-STM schedule where the lowest-index transaction wins each
    /// round.
    fn block_conflicts(block: &Block) -> u64 {
        let mut touches: BTreeMap<AccountId, u64> = BTreeMap::new();
        for tx in block.txs() {
            *touches.entry(tx.from()).or_insert(0) += 1;
            *touches.entry(tx.to()).or_insert(0) += 1;
        }
        touches.values().map(|&k| k.saturating_sub(1)).sum()
    }

    /// The estimated ancillary core utilisation at `now` (0 = idle).
    pub fn ancillary_rate(&mut self, now: SimTime) -> f64 {
        // Steady-state meter level for input rate r is r·HL/ln2.
        self.ancillary.usage(now) * std::f64::consts::LN_2 / ANCILLARY_HALF_LIFE.as_secs_f64()
    }

    /// The processor-sharing stretch factor applied to block execution.
    pub fn contention_factor(&mut self, now: SimTime) -> f64 {
        1.0 / (1.0 - self.ancillary_rate(now).min(CONTENTION_CAP))
    }

    /// The execution time of `block` if it is submitted at `now`: the
    /// per-block and per-transaction charges, one more per-transaction
    /// charge for every conflict abort (counted here), stretched by the
    /// current ancillary load.
    pub fn block_cost(&mut self, now: SimTime, block: &Block) -> SimDuration {
        let mut base = self.per_block + self.per_tx * block.len() as u64;
        if self.model_conflicts {
            let conflicts = Self::block_conflicts(block);
            self.conflict_aborts += conflicts;
            base += self.per_tx * conflicts;
        }
        base.mul_f64(self.contention_factor(now))
    }

    /// Charges ancillary work (request validation, speculative dispatch):
    /// it stretches subsequently submitted blocks (processor sharing)
    /// rather than queueing ahead of them.
    pub fn charge(&mut self, now: SimTime, cost: SimDuration) {
        self.ancillary.charge(now, cost.as_secs_f64());
    }

    /// Charges a `SEQUENCE_NUMBER_TOO_OLD` re-execution.
    pub fn charge_stale(&mut self, now: SimTime, cost: SimDuration) {
        self.stale_reexecutions += 1;
        self.charge(now, cost);
    }

    /// Number of stale re-executions charged so far.
    pub fn stale_reexecutions(&self) -> u64 {
        self.stale_reexecutions
    }

    /// Number of within-block conflict aborts (zero unless the conflict
    /// model is on).
    pub fn conflict_aborts(&self) -> u64 {
        self.conflict_aborts
    }

    /// Forgets the ancillary load (volatile state lost in a restart).
    pub fn reset(&mut self, now: SimTime) {
        self.ancillary.reset(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabl_sim::NodeId;
    use stabl_types::{AccountId, Hash32, Transaction};

    fn block(height: u64, txs: usize) -> Block {
        let txs = (0..txs as u64)
            .map(|n| {
                Transaction::transfer(AccountId::new(9), n + height * 100, AccountId::new(1), 1)
            })
            .collect();
        Block::new(Hash32::ZERO, height, NodeId::new(0), txs)
    }

    fn exec() -> BlockStmExecutor {
        BlockStmExecutor::new(
            SimDuration::from_millis(2),
            SimDuration::from_millis(10),
            false,
        )
    }

    #[test]
    fn cost_scales_with_block_size() {
        let mut e = exec();
        let cost = e.block_cost(SimTime::ZERO, &block(1, 5));
        assert_eq!(cost, SimDuration::from_millis(20)); // 10 + 5*2
    }

    #[test]
    fn charges_stretch_later_blocks() {
        let mut idle = exec();
        let undisturbed_cost = idle.block_cost(SimTime::ZERO, &block(1, 0));
        let mut busy = exec();
        // Sustained ancillary load of ~0.5 cores (well past the meter's
        // half-life warm-up) stretches execution towards 2x.
        for ms in 0..12_000u64 {
            busy.charge(SimTime::from_millis(ms), SimDuration::from_micros(500));
        }
        let at = SimTime::from_millis(12_000);
        let stretched_cost = busy.block_cost(at, &block(1, 0));
        assert!(
            stretched_cost > undisturbed_cost.mul_f64(1.5),
            "expected ≥1.5x stretch: {stretched_cost} vs {undisturbed_cost}"
        );
        assert!(busy.contention_factor(at) > 1.5);
        assert!(busy.ancillary_rate(at) > 0.3);
    }

    #[test]
    fn contention_factor_is_capped() {
        let mut e = exec();
        e.charge(SimTime::ZERO, SimDuration::from_secs(100));
        assert!(
            e.contention_factor(SimTime::ZERO) <= 4.0 + 1e-9,
            "1/(1-0.75) cap"
        );
    }

    #[test]
    fn stale_counter_tracks() {
        let mut e = exec();
        e.charge_stale(SimTime::ZERO, SimDuration::from_millis(4));
        e.charge_stale(SimTime::ZERO, SimDuration::from_millis(4));
        assert_eq!(e.stale_reexecutions(), 2);
        assert!(e.ancillary_rate(SimTime::ZERO) > 0.0);
    }

    #[test]
    fn conflict_model_charges_reexecutions() {
        // Five transfers from the same hot sender: 4 sender conflicts
        // plus 4 receiver conflicts (all pay AccountId 1) = 8 aborts.
        let mut e = BlockStmExecutor {
            model_conflicts: true,
            ..exec()
        };
        let cost = e.block_cost(SimTime::ZERO, &block(1, 5));
        // 10ms per block + 5*2ms per tx + 8*2ms conflict re-executions.
        assert_eq!(cost, SimDuration::from_millis(36));
        assert_eq!(e.conflict_aborts(), 8);

        // Off by default: same block costs the legacy 20ms, no aborts.
        let mut legacy = exec();
        assert_eq!(
            legacy.block_cost(SimTime::ZERO, &block(1, 5)),
            SimDuration::from_millis(20)
        );
        assert_eq!(legacy.conflict_aborts(), 0);
    }

    #[test]
    fn reset_forgets_the_ancillary_load() {
        let mut e = exec();
        e.charge(SimTime::ZERO, SimDuration::from_secs(1));
        assert!(e.contention_factor(SimTime::ZERO) > 1.0);
        e.reset(SimTime::ZERO);
        assert_eq!(
            e.block_cost(SimTime::ZERO, &block(1, 0)),
            SimDuration::from_millis(10)
        );
    }
}
