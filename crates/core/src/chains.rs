//! The five studied blockchains behind one dispatching interface.

use std::fmt;
use std::str::FromStr;

use crate::harness::{run_protocol_traced, RunConfig, RunResult, TracedRun};
use stabl_algorand::{AlgorandConfig, AlgorandNode};
use stabl_aptos::{AptosConfig, AptosNode};
use stabl_avalanche::{AvalancheConfig, AvalancheNode};
use stabl_redbelly::{RedbellyConfig, RedbellyNode};
use stabl_sim::CaptureLevel;
use stabl_solana::{SolanaConfig, SolanaNode};

/// One of the five blockchains the paper evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Chain {
    /// Algorand v3.22.0 (BA★, sortition, dynamic round time).
    Algorand,
    /// Aptos v1.9.3 (DiemBFT, Block-STM).
    Aptos,
    /// Avalanche C-Chain v1.10.18 (Snowball, throttling).
    Avalanche,
    /// Redbelly v0.36.2 (DBFT superblocks).
    Redbelly,
    /// Solana v1.18.1 (leader schedule, EAH).
    Solana,
}

impl Chain {
    /// Every studied chain, in the paper's order.
    pub const ALL: [Chain; 5] = [
        Chain::Algorand,
        Chain::Aptos,
        Chain::Avalanche,
        Chain::Redbelly,
        Chain::Solana,
    ];

    /// The chain's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Chain::Algorand => "Algorand",
            Chain::Aptos => "Aptos",
            Chain::Avalanche => "Avalanche",
            Chain::Redbelly => "Redbelly",
            Chain::Solana => "Solana",
        }
    }

    /// The failure threshold `t_B` the paper assigns for an `n`-node
    /// network: `⌈n/5⌉ − 1` for Algorand and Avalanche (20 % coalitions
    /// break them), `⌈n/3⌉ − 1` for the BFT trio.
    pub fn tolerated_faults(&self, n: usize) -> usize {
        match self {
            Chain::Algorand | Chain::Avalanche => n.div_ceil(5).saturating_sub(1),
            Chain::Aptos | Chain::Redbelly | Chain::Solana => n.div_ceil(3).saturating_sub(1),
        }
    }

    /// Runs an experiment on this chain with its default configuration.
    pub fn run(&self, config: &RunConfig) -> RunResult {
        self.run_with_cpu(config, 1.0)
    }

    /// Runs an experiment with `cores` times the default CPU budget —
    /// the paper doubles the vCPUs (4 → 8) for the secure-client
    /// experiment to keep Aptos from dropping transactions (§3).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not positive.
    pub fn run_with_cpu(&self, config: &RunConfig, cores: f64) -> RunResult {
        self.run_traced_with_cpu(config, cores, CaptureLevel::Off)
            .result
    }

    /// Runs an experiment recording the structured event stream at
    /// `capture` (the [`TracedRun::result`] is identical to an untraced
    /// run's).
    pub fn run_traced(&self, config: &RunConfig, capture: CaptureLevel) -> TracedRun {
        self.run_traced_with_cpu(config, 1.0, capture)
    }

    /// The traced, CPU-scaled general form behind [`Chain::run`],
    /// [`Chain::run_with_cpu`] and [`Chain::run_traced`].
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not positive.
    pub fn run_traced_with_cpu(
        &self,
        config: &RunConfig,
        cores: f64,
        capture: CaptureLevel,
    ) -> TracedRun {
        assert!(cores > 0.0, "cores factor must be positive");
        match self {
            Chain::Algorand => {
                let mut c = AlgorandConfig::default();
                c.exec_per_tx = c.exec_per_tx.mul_f64(1.0 / cores);
                c.exec_per_block = c.exec_per_block.mul_f64(1.0 / cores);
                run_protocol_traced::<AlgorandNode>(config, c, capture)
            }
            Chain::Aptos => {
                let mut c = AptosConfig::default();
                c.exec_per_tx = c.exec_per_tx.mul_f64(1.0 / cores);
                c.exec_per_block = c.exec_per_block.mul_f64(1.0 / cores);
                c.validation_cost = c.validation_cost.mul_f64(1.0 / cores);
                c.stale_exec_cost = c.stale_exec_cost.mul_f64(1.0 / cores);
                // Only a traffic-model workload can put conflicting
                // transactions in one block (paper-standard senders are disjoint).
                c.model_contention = config.workload.traffic.is_some();
                run_protocol_traced::<AptosNode>(config, c, capture)
            }
            Chain::Avalanche => {
                let mut c = AvalancheConfig::default();
                c.cpu_quota *= cores;
                run_protocol_traced::<AvalancheNode>(config, c, capture)
            }
            Chain::Redbelly => {
                let mut c = RedbellyConfig::default();
                c.exec_per_tx = c.exec_per_tx.mul_f64(1.0 / cores);
                c.exec_per_block = c.exec_per_block.mul_f64(1.0 / cores);
                run_protocol_traced::<RedbellyNode>(config, c, capture)
            }
            // The Solana model has no CPU-cost term, so `cores` is moot.
            Chain::Solana => {
                run_protocol_traced::<SolanaNode>(config, SolanaConfig::default(), capture)
            }
        }
    }
}

impl fmt::Display for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses [`Chain::name`], ignoring ASCII case.
impl FromStr for Chain {
    type Err = String;

    fn from_str(name: &str) -> Result<Chain, String> {
        Chain::ALL
            .into_iter()
            .find(|chain| chain.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                format!("unknown chain {name}; known: Algorand Aptos Avalanche Redbelly Solana")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_match_the_paper() {
        // n = 10: t = 1 for Algorand/Avalanche, t = 3 for the others.
        assert_eq!(Chain::Algorand.tolerated_faults(10), 1);
        assert_eq!(Chain::Avalanche.tolerated_faults(10), 1);
        assert_eq!(Chain::Aptos.tolerated_faults(10), 3);
        assert_eq!(Chain::Redbelly.tolerated_faults(10), 3);
        assert_eq!(Chain::Solana.tolerated_faults(10), 3);
        // And the maximum t_B + 1 over all chains is the 4 the secure
        // client replicates to.
        let max_t = Chain::ALL.iter().map(|c| c.tolerated_faults(10)).max();
        assert_eq!(max_t, Some(3));
    }

    #[test]
    fn from_str_round_trips_names_case_insensitively() {
        for chain in Chain::ALL {
            assert_eq!(chain.name().parse(), Ok(chain));
            assert_eq!(chain.name().to_lowercase().parse(), Ok(chain));
            assert_eq!(chain.name().to_uppercase().parse(), Ok(chain));
        }
        let err = "bitcoin".parse::<Chain>().expect_err("not a studied chain");
        assert!(err.contains("bitcoin") && err.contains("Redbelly"), "{err}");
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<&str> = Chain::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 5);
        assert_eq!(Chain::Redbelly.to_string(), "Redbelly");
    }

    #[test]
    fn every_chain_commits_a_quick_baseline() {
        for chain in Chain::ALL {
            let config = crate::RunConfig::quick(42);
            let result = chain.run(&config);
            assert!(
                result.commit_ratio() > 0.95,
                "{chain}: committed only {:.0}% of the load",
                result.commit_ratio() * 100.0
            );
            assert!(!result.lost_liveness, "{chain} lost liveness in baseline");
            assert!(result.panics.is_empty(), "{chain} panicked in baseline");
        }
    }

    #[test]
    fn every_chain_survives_one_withholding_byzantine_node() {
        // One mute back node is within every chain's fault budget
        // (f = 1 ≤ t_B): the deviation engages, traffic shrinks, but the
        // client-facing nodes keep committing.
        for chain in Chain::ALL {
            let mut config = crate::RunConfig::quick(42);
            config.byzantine = stabl_sim::ByzantineSpec::new(
                [stabl_sim::NodeId::new(9)],
                stabl_sim::ByzantineBehavior::Withhold,
            );
            let result = chain.run(&config);
            let baseline = chain.run(&crate::RunConfig::quick(42));
            assert!(
                result.stats.messages_sent < baseline.stats.messages_sent,
                "{chain}: node 9's outbound traffic must be withheld"
            );
            assert!(
                result.commit_ratio() > 0.9,
                "{chain}: committed only {:.0}% with one mute node",
                result.commit_ratio() * 100.0
            );
            assert!(!result.lost_liveness, "{chain} lost liveness");
        }
    }
}
