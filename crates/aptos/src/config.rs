//! Configuration of the simulated Aptos validator.

use stabl_sim::{ConnConfig, SimDuration};

/// Tunables of the DiemBFT consensus, Block-STM executor and networking
/// of a simulated Aptos validator.
///
/// Defaults model Aptos v1.9.3 on the paper's 4-vCPU VMs at the scale of
/// the Stabl testbed (10 validators, 200 TPS offered load).
#[derive(Clone, Debug)]
pub struct AptosConfig {
    /// Maximum transactions per proposed block.
    pub max_block_txs: usize,
    /// Mempool capacity (transactions).
    pub mempool_capacity: usize,
    /// Delay between entering a round as leader and proposing (batching
    /// window; paces block production).
    pub propose_delay: SimDuration,
    /// Base round timeout of the pacemaker.
    pub round_timeout: SimDuration,
    /// Pacemaker timeout multiplier per consecutive failed round
    /// (per-mille: `1500` grows by half).
    pub timeout_factor_permille: u32,
    /// Pacemaker timeout ceiling.
    pub timeout_cap: SimDuration,
    /// Consecutive proposal failures after which a leader is excluded
    /// from rotation (leader reputation).
    pub reputation_strikes: u32,
    /// How long an excluded leader stays out of the rotation.
    pub reputation_window: SimDuration,
    /// Block-STM execution cost per transaction in a committed block.
    pub exec_per_tx: SimDuration,
    /// Fixed execution cost per committed block.
    pub exec_per_block: SimDuration,
    /// Cost of validating + *speculatively executing* one transaction on
    /// its submission / shared-mempool ingestion path. Comparable to the
    /// execution cost itself — this is the CPU the paper saw the secure
    /// client's redundant submissions multiply (§3, §7).
    pub validation_cost: SimDuration,
    /// Extra executor cost when a submission or block entry turns out to
    /// be already committed (`SEQUENCE_NUMBER_TOO_OLD` re-execution).
    pub stale_exec_cost: SimDuration,
    /// Connection management (probes every 5 s, 2 s-base exponential
    /// backoff capped at 30 s — the paper's §6 parameters).
    pub conn: ConnConfig,
    /// Connection-manager tick period.
    pub conn_tick: SimDuration,
    /// Enables the Block-STM within-block conflict model. The harness
    /// sets it exactly when the workload carries a traffic model; the
    /// paper-standard stream's disjoint accounts never conflict.
    pub model_contention: bool,
}

impl Default for AptosConfig {
    fn default() -> Self {
        AptosConfig {
            max_block_txs: 300,
            mempool_capacity: 200_000,
            propose_delay: SimDuration::from_millis(250),
            round_timeout: SimDuration::from_millis(1_500),
            timeout_factor_permille: 1_500,
            timeout_cap: SimDuration::from_secs(8),
            reputation_strikes: 4,
            reputation_window: SimDuration::from_secs(600),
            exec_per_tx: SimDuration::from_micros(2_500),
            exec_per_block: SimDuration::from_millis(10),
            validation_cost: SimDuration::from_micros(1_800),
            stale_exec_cost: SimDuration::from_millis(4),
            conn: ConnConfig::fast_recovery(),
            conn_tick: SimDuration::from_millis(1_000),
            model_contention: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_consistent() {
        let cfg = AptosConfig::default();
        assert!(cfg.round_timeout < cfg.timeout_cap);
        assert!(
            cfg.propose_delay < cfg.round_timeout,
            "leaders propose before timing out"
        );
        assert!(cfg.max_block_txs > 0 && cfg.mempool_capacity > cfg.max_block_txs);
        // Executor keeps up with the paper's 200 TPS baseline.
        let per_second_cost = cfg.exec_per_tx.as_micros() * 200;
        assert!(
            per_second_cost < 1_000_000,
            "executor saturated at baseline load"
        );
    }
}
