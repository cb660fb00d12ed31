//! Configuration of the simulated Avalanche (C-Chain) validator.

use stabl_sim::SimDuration;

/// Tunables of the Snowball consensus, transaction gossip and inbound
/// throttling of a simulated Avalanche validator.
///
/// Defaults model AvalancheGo v1.10.18 / coreth at the scale of the
/// Stabl testbed: 2 s block cadence, ≤ 714 transfer transactions per
/// block (15 M gas / 21 k gas), sampling parameters scaled down to the
/// 10-node network, and default message throttling.
#[derive(Clone, Debug)]
pub struct AvalancheConfig {
    /// Snowball sample size per poll.
    pub k: usize,
    /// Chits required for a successful poll (`α > k/2`).
    pub alpha: usize,
    /// Consecutive successful polls required to decide.
    pub beta: u32,
    /// Poll period while a height is undecided.
    pub query_interval: SimDuration,
    /// How long a poll waits for chits before being finalised short.
    pub query_timeout: SimDuration,
    /// Block production cadence.
    pub block_interval: SimDuration,
    /// Maximum transactions per block (the 15 M gas limit).
    pub max_block_txs: usize,
    /// Transaction pool capacity.
    pub pool_capacity: usize,
    /// Announce batching period for newly received transactions.
    pub announce_interval: SimDuration,
    /// Gossip fan-out (peers per announce/regossip batch).
    pub gossip_fanout: usize,
    /// Pending age after which a transaction is re-gossiped.
    pub stale_age: SimDuration,
    /// Re-gossip period for stale transactions.
    pub regossip_interval: SimDuration,
    /// Maximum stale transactions per re-gossip batch (drawn in map
    /// iteration order, i.e. effectively at random — coreth's
    /// `legacypool` behaviour the paper highlights).
    pub regossip_batch: usize,
    // Throttling.
    /// CPU meter half-life.
    pub cpu_half_life: SimDuration,
    /// CPU usage target (`targeter.TargetUsage`).
    pub cpu_quota: f64,
    /// Unprocessed-message cap (`bufferThrottler`).
    pub max_unprocessed: usize,
    /// Drain attempt period for parked messages.
    pub drain_interval: SimDuration,
    // Message costs (core-seconds).
    /// Cost of processing one gossiped transaction.
    pub cost_per_tx: f64,
    /// Cost of processing a query or chit.
    pub cost_query: f64,
    /// Base cost of processing a block proposal.
    pub cost_proposal_base: f64,
    /// Per-transaction cost of processing a block proposal.
    pub cost_proposal_per_tx: f64,
    /// Execution cost per committed transaction.
    pub cost_exec_per_tx: f64,
}

impl AvalancheConfig {
    /// The sampling parameters effective in an `n`-node network: `k` is
    /// clamped to the peer count and `α` scaled to keep its ratio (the
    /// AvalancheGo behaviour on networks smaller than the default `k`).
    pub fn effective_sampling(&self, n: usize) -> (usize, usize) {
        let k_eff = self.k.min(n.saturating_sub(1)).max(1);
        let alpha_eff = (k_eff * self.alpha).div_ceil(self.k).max(k_eff / 2 + 1);
        (k_eff, alpha_eff)
    }
}

impl Default for AvalancheConfig {
    fn default() -> Self {
        AvalancheConfig {
            k: 8,
            alpha: 7,
            beta: 5,
            query_interval: SimDuration::from_millis(100),
            query_timeout: SimDuration::from_millis(300),
            block_interval: SimDuration::from_millis(2_000),
            max_block_txs: 714,
            pool_capacity: 200_000,
            announce_interval: SimDuration::from_millis(800),
            gossip_fanout: 4,
            stale_age: SimDuration::from_secs(30),
            regossip_interval: SimDuration::from_millis(1_000),
            regossip_batch: 1_024,
            cpu_half_life: SimDuration::from_secs(1),
            cpu_quota: 1.2,
            max_unprocessed: 1_024,
            drain_interval: SimDuration::from_millis(50),
            cost_per_tx: 0.000_5,
            cost_query: 0.000_3,
            cost_proposal_base: 0.002,
            cost_proposal_per_tx: 0.000_1,
            cost_exec_per_tx: 0.000_3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_consistent() {
        let cfg = AvalancheConfig::default();
        assert!(cfg.alpha * 2 > cfg.k, "alpha must be a majority of k");
        assert!(cfg.alpha <= cfg.k);
        assert_eq!(cfg.effective_sampling(10), (8, 7));
        let (k4, a4) = cfg.effective_sampling(4);
        assert!(
            k4 == 3 && a4 * 2 > k4 && a4 <= k4,
            "scaled params invalid: {k4}/{a4}"
        );
        assert!(cfg.query_timeout > cfg.query_interval);
        assert!(
            cfg.stale_age > cfg.block_interval * 4,
            "steady state never regossips"
        );
        // Analytic lower bound on the baseline load (epidemic gossip
        // reaches each node ≥ 2 times per tx, ~5 proposals per 2 s,
        // execution): the sustained meter level must stay under the
        // quota — the margin is deliberately thin (the paper: default
        // throttling is already marginal at 200 TPS; the node tests
        // observe baseline meter levels of 0.7–1.3 against the 1.2
        // quota).
        let baseline = 200.0 * cfg.cost_per_tx * 2.0
            + (cfg.cost_proposal_base + 400.0 * cfg.cost_proposal_per_tx) * 5.0 / 2.0
            + 200.0 * cfg.cost_exec_per_tx;
        let steady_meter = baseline * 1.44; // CpuMeter steady state
        assert!(
            steady_meter < cfg.cpu_quota,
            "baseline meter {steady_meter} exceeds quota"
        );
        // A full regossip batch is heavy enough to saturate: one batch
        // per second from a few peers exceeds the sustainable rate.
        let storm = cfg.regossip_batch as f64 * cfg.cost_per_tx * 2.5;
        assert!(
            storm > cfg.cpu_quota,
            "regossip storm {storm} would not saturate"
        );
    }
}
