//! Client connection strategies.
//!
//! Blockchain SDKs typically connect an application to a *single* node
//! and trust it — which silently reduces the tolerated Byzantine nodes
//! to zero (§3). Stabl's *secure client* instead submits every
//! transaction to `t_B + 1` nodes and reports it committed only once all
//! of them responded, deduplication being left to the chain.
//!
//! [`RetryPolicy`] adds the robustness layer real SDKs bolt on top:
//! per-submission timeouts with bounded exponential backoff and
//! resubmission to alternate nodes, so a client pinned to a crashed or
//! withholding node eventually routes around it.

use stabl_sim::{NodeId, SimDuration};

/// How clients attach to the blockchain network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ClientMode {
    /// Each client trusts one node (the common SDK default).
    #[default]
    Single,
    /// Each client submits to — and awaits commits from — `replication`
    /// distinct nodes (the paper uses `t_B + 1`, 4 at n = 10; see
    /// [`ClientMode::paper_secure`]).
    Secure {
        /// Nodes per client.
        replication: usize,
    },
    /// credence.js-style client: submit to `replication` nodes but
    /// accept as soon as `quorum` of them observed the commit. With
    /// `quorum = t + 1` this tolerates up to `replication − quorum`
    /// *withholding* Byzantine nodes without stalling — the specialised
    /// client library the paper's future work asks to evaluate (§9).
    Credence {
        /// Nodes per client.
        replication: usize,
        /// Matching observations required to accept.
        quorum: usize,
    },
}

impl ClientMode {
    /// The standard secure client of the paper's §7 in an `n`-node
    /// network: `t_B + 1 = ⌈n/3⌉` replicas, where `t_B = ⌈n/3⌉ − 1` is
    /// the largest Byzantine tolerance among the studied chains (the
    /// BFT ones), so at least one replica is correct on every chain.
    /// At the paper's n = 10 that is 4.
    pub fn paper_secure(n: usize) -> ClientMode {
        ClientMode::Secure {
            replication: n.div_ceil(3),
        }
    }

    /// A credence.js-style client for `t` Byzantine nodes with one spare
    /// replica: connects to `t + 2` nodes and accepts at `t + 1`
    /// matching observations.
    pub fn credence(t: usize) -> ClientMode {
        ClientMode::Credence {
            replication: t + 2,
            quorum: t + 1,
        }
    }

    /// How many nodes one client uses.
    pub fn replication(&self) -> usize {
        match self {
            ClientMode::Single => 1,
            ClientMode::Secure { replication } => *replication,
            ClientMode::Credence { replication, .. } => *replication,
        }
    }

    /// How many of those nodes must observe a commit before the client
    /// accepts it.
    ///
    /// # Panics
    ///
    /// Panics on a credence mode whose quorum is zero or exceeds its
    /// replication.
    pub fn required_quorum(&self) -> usize {
        match self {
            ClientMode::Single => 1,
            ClientMode::Secure { replication } => *replication,
            ClientMode::Credence {
                replication,
                quorum,
            } => {
                assert!(
                    *quorum >= 1 && quorum <= replication,
                    "credence quorum {quorum} out of range for replication {replication}"
                );
                *quorum
            }
        }
    }

    /// The nodes client `client` submits to, out of the `front_nodes`
    /// client-facing validators (ids `0..front_nodes`).
    ///
    /// # Panics
    ///
    /// Panics if `front_nodes` is zero or smaller than the replication
    /// factor.
    pub fn nodes_for(&self, client: usize, front_nodes: usize) -> Vec<NodeId> {
        assert!(front_nodes > 0, "need at least one client-facing node");
        let replication = self.replication();
        assert!(
            replication <= front_nodes,
            "replication {replication} exceeds the {front_nodes} client-facing nodes"
        );
        (0..replication)
            .map(|j| NodeId::new(((client + j) % front_nodes) as u32))
            .collect()
    }
}

/// Per-submission timeout, bounded exponential backoff and
/// resubmission to alternate nodes.
///
/// After `timeout` without resolution the client waits
/// `backoff_for(attempt)` and resubmits to the *next* replica set along
/// the front-node ring, up to `max_retries` resubmissions; after that
/// the client gives up on the transaction (counted, not silently
/// dropped).
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RetryPolicy {
    /// How long the client waits for resolution before each retry.
    pub timeout: SimDuration,
    /// Maximum resubmissions per transaction.
    pub max_retries: u32,
    /// Backoff before the first resubmission.
    pub backoff_base: SimDuration,
    /// Per-attempt backoff growth factor, in permille (2000 doubles).
    pub backoff_factor_permille: u32,
    /// Upper bound on any single backoff wait.
    pub backoff_cap: SimDuration,
}

impl RetryPolicy {
    /// A paper-plausible default: 10 s timeout, 3 retries, 1 s backoff
    /// doubling up to 8 s.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            timeout: SimDuration::from_secs(10),
            max_retries: 3,
            backoff_base: SimDuration::from_secs(1),
            backoff_factor_permille: 2000,
            backoff_cap: SimDuration::from_secs(8),
        }
    }

    /// The backoff before resubmission number `attempt` (0-based),
    /// capped at `backoff_cap`. Pure integer arithmetic on microseconds
    /// so the schedule is exactly reproducible.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        let cap = self.backoff_cap.as_micros();
        let mut wait = self.backoff_base.as_micros().min(cap);
        for _ in 0..attempt {
            wait = wait
                .saturating_mul(u64::from(self.backoff_factor_permille))
                .saturating_div(1000)
                .min(cap);
        }
        SimDuration::from_micros(wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pins_one_node() {
        let mode = ClientMode::Single;
        assert_eq!(mode.nodes_for(0, 5), vec![NodeId::new(0)]);
        assert_eq!(mode.nodes_for(3, 5), vec![NodeId::new(3)]);
        assert_eq!(mode.nodes_for(7, 5), vec![NodeId::new(2)], "wraps");
        assert_eq!(mode.replication(), 1);
    }

    #[test]
    fn secure_spreads_over_replicas() {
        let mode = ClientMode::paper_secure(10);
        assert_eq!(
            mode.nodes_for(0, 5),
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
        assert_eq!(
            mode.nodes_for(4, 5),
            vec![
                NodeId::new(4),
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2)
            ]
        );
    }

    #[test]
    fn secure_balances_load() {
        // With 5 clients over 5 front nodes at replication 4, every node
        // serves exactly 4 clients.
        let mode = ClientMode::paper_secure(10);
        let mut load = [0u32; 5];
        for client in 0..5 {
            for node in mode.nodes_for(client, 5) {
                load[node.index()] += 1;
            }
        }
        assert_eq!(load, [4, 4, 4, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn oversized_replication_rejected() {
        let _ = ClientMode::Secure { replication: 6 }.nodes_for(0, 5);
    }

    #[test]
    fn credence_quorums() {
        let mode = ClientMode::credence(3);
        assert_eq!(mode.replication(), 5);
        assert_eq!(mode.required_quorum(), 4);
        assert_eq!(ClientMode::Single.required_quorum(), 1);
        assert_eq!(
            ClientMode::paper_secure(10).required_quorum(),
            4,
            "wait-all"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn credence_quorum_validated() {
        let _ = ClientMode::Credence {
            replication: 3,
            quorum: 4,
        }
        .required_quorum();
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy::standard();
        assert_eq!(policy.backoff_for(0), SimDuration::from_secs(1));
        assert_eq!(policy.backoff_for(1), SimDuration::from_secs(2));
        assert_eq!(policy.backoff_for(2), SimDuration::from_secs(4));
        assert_eq!(policy.backoff_for(3), SimDuration::from_secs(8));
        assert_eq!(policy.backoff_for(4), SimDuration::from_secs(8), "capped");
        assert_eq!(policy.backoff_for(100), SimDuration::from_secs(8));
    }

    #[test]
    fn backoff_base_above_cap_is_clamped() {
        let policy = RetryPolicy {
            timeout: SimDuration::from_secs(1),
            max_retries: 2,
            backoff_base: SimDuration::from_secs(20),
            backoff_factor_permille: 2000,
            backoff_cap: SimDuration::from_secs(5),
        };
        assert_eq!(policy.backoff_for(0), SimDuration::from_secs(5));
    }

    #[test]
    fn retry_policy_roundtrips_through_json() {
        let policy = RetryPolicy::standard();
        let json = serde_json::to_string(&policy).expect("serialise");
        let back: RetryPolicy = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, policy);
    }
}
