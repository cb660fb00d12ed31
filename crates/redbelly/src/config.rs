//! Configuration of the simulated Redbelly validator.

use stabl_sim::{ConnConfig, SimDuration};

/// Tunables of the DBFT superblock consensus and networking of a
/// simulated Redbelly validator.
///
/// Defaults model Redbelly v0.36.2 on the paper's testbed. The
/// connection parameters encode the `MaxIdleTime`-driven passive
/// reconnection the paper traces Redbelly's ≈81 s partition recovery to
/// (§6).
#[derive(Clone, Debug)]
pub struct RedbellyConfig {
    /// Maximum transactions a node packs into its per-height proposal.
    /// Redbelly's superblock combines *all* proposals, so the effective
    /// block capacity is up to `n` times this.
    pub max_proposal_txs: usize,
    /// Pool capacity (transactions).
    pub pool_capacity: usize,
    /// Minimum spacing between consecutive superblock heights (chain
    /// pacing; proposals batch during the interval).
    pub height_interval: SimDuration,
    /// How long a node waits for missing proposals before it starts
    /// deciding 0 for the absent slots.
    pub proposal_grace: SimDuration,
    /// Period of the retransmission loop for stalled heights.
    pub retransmit_interval: SimDuration,
    /// A height is considered stalled (and retransmitted) after this.
    pub stall_threshold: SimDuration,
    /// Execution cost per committed transaction (SEVM native transfer).
    pub exec_per_tx: SimDuration,
    /// Fixed execution cost per committed superblock.
    pub exec_per_block: SimDuration,
    /// Connection management: `MaxIdleTime`-style 30 s idle timeout and a
    /// slow reconnection schedule.
    pub conn: ConnConfig,
    /// Connection-manager tick period.
    pub conn_tick: SimDuration,
}

impl RedbellyConfig {
    /// Execution time of a committed superblock of `txs` transactions.
    pub fn exec_cost(&self, txs: usize) -> SimDuration {
        self.exec_per_block + self.exec_per_tx * txs as u64
    }
}

impl Default for RedbellyConfig {
    fn default() -> Self {
        RedbellyConfig {
            max_proposal_txs: 10_000,
            pool_capacity: 200_000,
            height_interval: SimDuration::from_millis(400),
            proposal_grace: SimDuration::from_millis(400),
            retransmit_interval: SimDuration::from_millis(2_000),
            stall_threshold: SimDuration::from_millis(3_000),
            exec_per_tx: SimDuration::from_micros(500),
            exec_per_block: SimDuration::from_millis(5),
            conn: ConnConfig {
                idle_timeout: SimDuration::from_secs(30),
                heartbeat_interval: SimDuration::from_secs(10),
                backoff_base: SimDuration::from_secs(60),
                backoff_factor_permille: 2_000,
                backoff_cap: SimDuration::from_secs(240),
            },
            conn_tick: SimDuration::from_millis(1_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_consistent() {
        let cfg = RedbellyConfig::default();
        assert!(cfg.height_interval >= cfg.proposal_grace);
        assert!(
            cfg.conn.idle_timeout == SimDuration::from_secs(30),
            "MaxIdleTime"
        );
        assert!(cfg.max_proposal_txs > 0);
    }
}
