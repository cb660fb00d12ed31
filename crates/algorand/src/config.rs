//! Configuration of the simulated Algorand validator.

use stabl_sim::{ConnConfig, SimDuration};

/// Tunables of the BA★ agreement, cryptographic sortition, dynamic round
/// time and networking of a simulated Algorand validator.
///
/// Defaults model Algorand v3.22.0 (with Dynamic Round Time) at the scale
/// of the Stabl testbed. The connection parameters produce the ≈99 s
/// partition recovery of the paper's §6 (20 s idle teardown, 30 s-base
/// doubling dial backoff).
#[derive(Clone, Debug)]
pub struct AlgorandConfig {
    /// Maximum transactions per proposed block.
    pub max_block_txs: usize,
    /// Transaction pool capacity.
    pub pool_capacity: usize,
    /// Probability (in 2^-64 units of the VRF hash space) that a node is
    /// selected as block proposer in a given attempt, expressed per-mille.
    pub proposer_permille: u32,
    /// Votes required for soft- and cert-quorums, as per-mille of `n`
    /// (810 ⇒ ⌈0.81·n⌉: tolerates `⌈n/5⌉−1` crashes and stalls one
    /// failure later — Algorand's >80 %-online liveness threshold at
    /// every network size).
    pub quorum_permille: u32,
    /// Default (cold) filter timeout the dynamic round time starts from
    /// and resets to after a slow round.
    pub default_filter: SimDuration,
    /// Smallest filter timeout the dynamic round time converges to.
    pub min_filter: SimDuration,
    /// Multiplier (per-mille) applied to the filter after each fast
    /// round (< 1000 shrinks it toward `min_filter`).
    pub filter_shrink_permille: u32,
    /// Pacing: minimum interval between consecutive BA★ rounds (block
    /// time).
    pub round_interval: SimDuration,
    /// After a slow round, the fast proposal path stays disabled for
    /// this many rounds (the "reset to default parameters" behaviour of
    /// Dynamic Round Time).
    pub conservative_rounds: u64,
    /// Attempt (recovery) timeout: a round attempt that has not certified
    /// a block by then re-runs sortition with reset timing parameters.
    pub attempt_timeout: SimDuration,
    /// Pull-gossip round period (each round asks one random peer for
    /// missing transactions).
    pub pull_interval: SimDuration,
    /// Maximum transactions per pull-gossip response.
    pub pull_batch: usize,
    /// Execution cost per committed transaction.
    pub exec_per_tx: SimDuration,
    /// Fixed execution cost per committed block.
    pub exec_per_block: SimDuration,
    /// Connection management.
    pub conn: ConnConfig,
    /// Connection-manager tick period.
    pub conn_tick: SimDuration,
}

impl AlgorandConfig {
    /// Execution time of a committed block of `txs` transactions.
    pub fn exec_cost(&self, txs: usize) -> SimDuration {
        self.exec_per_block + self.exec_per_tx * txs as u64
    }
}

impl Default for AlgorandConfig {
    fn default() -> Self {
        AlgorandConfig {
            max_block_txs: 1_500,
            pool_capacity: 200_000,
            proposer_permille: 300,
            quorum_permille: 810,
            default_filter: SimDuration::from_millis(2_000),
            min_filter: SimDuration::from_millis(300),
            filter_shrink_permille: 850,
            round_interval: SimDuration::from_millis(1_000),
            conservative_rounds: 3,
            attempt_timeout: SimDuration::from_secs(4),
            pull_interval: SimDuration::from_millis(3_000),
            pull_batch: 512,
            exec_per_tx: SimDuration::from_micros(400),
            exec_per_block: SimDuration::from_millis(5),
            conn: ConnConfig {
                idle_timeout: SimDuration::from_secs(20),
                heartbeat_interval: SimDuration::from_secs(8),
                backoff_base: SimDuration::from_secs(30),
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
        let cfg = AlgorandConfig::default();
        assert!(cfg.min_filter < cfg.default_filter);
        assert!(cfg.default_filter < cfg.attempt_timeout);
        assert!(cfg.round_interval < cfg.attempt_timeout);
        assert!(cfg.conservative_rounds > 0);
        assert!(cfg.pull_batch > 0 && cfg.pull_interval > cfg.min_filter);
        assert!(cfg.filter_shrink_permille < 1_000);
        assert!(cfg.quorum_permille > 667, "BFT quorum above two thirds");
        // The threshold must sit exactly between f = t (live) and
        // f = t + 1 (stalled) at the paper's scale and beyond.
        for n in [10usize, 16, 22] {
            let quorum = (n * cfg.quorum_permille as usize).div_ceil(1000);
            let t = n.div_ceil(5) - 1;
            assert!(n - t >= quorum, "n={n}: f=t crashes must keep a quorum");
            assert!(n - t - 1 < quorum, "n={n}: f=t+1 must stall");
        }
        assert!(cfg.proposer_permille > 0 && cfg.proposer_permille < 1_000);
    }
}
