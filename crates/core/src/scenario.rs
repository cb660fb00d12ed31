//! The paper's standard experiments, parameterised and runnable.
//!
//! Every evaluation in the paper compares a baseline 400 s run at
//! 200 TPS against an altered run on the same 10-validator topology:
//!
//! * **Crash** (§4, Fig. 3a/4): `f = t_B` nodes crash at 133 s.
//! * **Transient** (§5, Fig. 3b/5): `f = t_B + 1` nodes halt at 133 s
//!   and restart at 266 s.
//! * **Partition** (§6, Fig. 3c/6): `f = t_B + 1` nodes are disconnected
//!   between 133 s and 266 s.
//! * **Secure client** (§7, Fig. 3d): each transaction goes to 4 nodes
//!   and commits when all 4 observed it, on doubled-vCPU machines.
//!
//! Failures always hit the validators that serve no client (ids 5–9).

use std::str::FromStr;

use stabl_sim::{ByzantineSpec, LatencyModel, NodeId, SimDuration, SimTime};

use crate::harness::{RunConfig, RunResult};
use crate::metrics::Sensitivity;
use crate::report::{RunSummary, ScenarioReport};
use crate::{Chain, ClientMode, FaultSchedule, WorkloadSpec};

/// The four adversarial dimensions of the study (plus the baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScenarioKind {
    /// No failures (the reference distribution).
    Baseline,
    /// Resilience: `f = t_B` permanent crashes.
    Crash,
    /// Recoverability: `f = t_B + 1` transient node failures.
    Transient,
    /// Partition tolerance: `f = t_B + 1` nodes disconnected.
    Partition,
    /// Byzantine node tolerance: the redundant secure client.
    SecureClient,
}

impl ScenarioKind {
    /// The four altered scenarios, in the paper's figure order.
    pub const ALTERED: [ScenarioKind; 4] = [
        ScenarioKind::Crash,
        ScenarioKind::Transient,
        ScenarioKind::Partition,
        ScenarioKind::SecureClient,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::Baseline => "baseline",
            ScenarioKind::Crash => "crash",
            ScenarioKind::Transient => "transient",
            ScenarioKind::Partition => "partition",
            ScenarioKind::SecureClient => "secure-client",
        }
    }
}

/// Parses [`ScenarioKind::name`], ignoring ASCII case; `secure` is
/// accepted for `secure-client`.
impl FromStr for ScenarioKind {
    type Err = String;

    fn from_str(name: &str) -> Result<ScenarioKind, String> {
        let name = if name.eq_ignore_ascii_case("secure") {
            ScenarioKind::SecureClient.name()
        } else {
            name
        };
        [ScenarioKind::Baseline]
            .into_iter()
            .chain(ScenarioKind::ALTERED)
            .find(|kind| kind.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                format!(
                    "unknown scenario {name}; known: baseline crash transient partition \
                     secure-client"
                )
            })
    }
}

/// Parameters of the paper's experimental campaign.
#[derive(Clone, Debug)]
pub struct PaperSetup {
    /// Validators (the paper: 10).
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Run length (the paper: 400 s).
    pub horizon: SimTime,
    /// Submissions stop shortly before the horizon so the tail can
    /// drain in healthy runs.
    pub submit_until: SimTime,
    /// Failure injection time (the paper: 133 s).
    pub fault_at: SimTime,
    /// Recovery/heal time (the paper: 266 s).
    pub recover_at: SimTime,
    /// Link latency.
    pub latency: LatencyModel,
    /// Liveness grace window.
    pub stall_grace: SimDuration,
}

impl Default for PaperSetup {
    fn default() -> Self {
        PaperSetup {
            n: 10,
            seed: 0xB10C_7357,
            horizon: SimTime::from_secs(400),
            submit_until: SimTime::from_secs(380),
            fault_at: SimTime::from_secs(133),
            recover_at: SimTime::from_secs(266),
            latency: LatencyModel::lan(),
            stall_grace: SimDuration::from_secs(30),
        }
    }
}

impl PaperSetup {
    /// A scaled-down campaign (shorter run) for tests and examples;
    /// faults at 1/3, recovery at 2/3 of the horizon, like the paper.
    pub fn quick(horizon_secs: u64, seed: u64) -> PaperSetup {
        PaperSetup {
            n: 10,
            seed,
            horizon: SimTime::from_secs(horizon_secs),
            submit_until: SimTime::from_secs(horizon_secs.saturating_sub(horizon_secs / 20)),
            fault_at: SimTime::from_secs(horizon_secs / 3),
            recover_at: SimTime::from_secs(horizon_secs * 2 / 3),
            latency: LatencyModel::lan(),
            stall_grace: SimDuration::from_secs(horizon_secs / 13),
        }
    }

    /// The victims of a fault hitting `f` nodes: the trailing validators
    /// (which never receive client transactions).
    ///
    /// # Panics
    ///
    /// Panics if `f` exceeds the non-client validators.
    pub fn victims(&self, f: usize) -> Vec<NodeId> {
        let front = 5.min(self.n);
        assert!(
            f <= self.n - front,
            "cannot fault {f} of {} back nodes",
            self.n - front
        );
        (0..f)
            .map(|i| NodeId::new((self.n - 1 - i) as u32))
            .collect()
    }

    /// Builds the [`RunConfig`] for a chain and scenario.
    pub fn run_config(&self, chain: Chain, kind: ScenarioKind) -> RunConfig {
        let t = chain.tolerated_faults(self.n);
        let faults = match kind {
            ScenarioKind::Baseline | ScenarioKind::SecureClient => FaultSchedule::none(),
            ScenarioKind::Crash => FaultSchedule::crash(self.victims(t), self.fault_at),
            ScenarioKind::Transient => {
                FaultSchedule::transient(self.victims(t + 1), self.fault_at, self.recover_at)
            }
            ScenarioKind::Partition => {
                FaultSchedule::partition(self.victims(t + 1), self.fault_at, self.recover_at)
            }
        };
        let client_mode = match kind {
            ScenarioKind::SecureClient => ClientMode::paper_secure(self.n),
            _ => ClientMode::Single,
        };
        RunConfig {
            n: self.n,
            seed: self.seed,
            latency: self.latency,
            topology: None,
            horizon: self.horizon,
            workload: WorkloadSpec::paper_standard(self.submit_until),
            client_mode,
            faults,
            byzantine: ByzantineSpec::none(),
            byzantine_rpc: Vec::new(),
            retry: None,
            stall_grace: self.stall_grace,
        }
    }

    /// Runs one scenario.
    ///
    /// The secure-client run uses the paper's doubled-vCPU machines.
    pub fn run(&self, chain: Chain, kind: ScenarioKind) -> RunResult {
        let config = self.run_config(chain, kind);
        match kind {
            ScenarioKind::SecureClient => chain.run_with_cpu(&config, 2.0),
            _ => chain.run(&config),
        }
    }

    /// Runs the baseline a given scenario is compared against. The
    /// secure-client experiment ran on doubled-vCPU machines (§3), so
    /// its baseline uses the same hardware.
    pub fn run_baseline(&self, chain: Chain, kind: ScenarioKind) -> RunResult {
        let config = self.run_config(chain, ScenarioKind::Baseline);
        match kind {
            ScenarioKind::SecureClient => chain.run_with_cpu(&config, 2.0),
            _ => chain.run(&config),
        }
    }

    /// Runs baseline + altered and reports the sensitivity score.
    pub fn sensitivity(&self, chain: Chain, kind: ScenarioKind) -> ScenarioReport {
        let baseline = self.run_baseline(chain, kind);
        let altered = self.run(chain, kind);
        report_from_runs(chain, kind, &baseline, &altered)
    }
}

/// Builds a [`ScenarioReport`] from an already-executed pair of runs
/// (lets callers reuse one baseline for several scenarios).
pub fn report_from_runs(
    chain: Chain,
    kind: ScenarioKind,
    baseline: &RunResult,
    altered: &RunResult,
) -> ScenarioReport {
    let sensitivity = if altered.lost_liveness {
        Sensitivity::Infinite
    } else {
        match (baseline.ecdf(), altered.ecdf()) {
            (Ok(b), Ok(a)) => Sensitivity::from_ecdfs(&b, &a),
            _ => Sensitivity::Infinite,
        }
    };
    ScenarioReport {
        chain,
        kind,
        sensitivity,
        baseline: RunSummary::of(baseline),
        altered: RunSummary::of(altered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_avoid_client_nodes() {
        let setup = PaperSetup::default();
        let victims = setup.victims(4);
        assert_eq!(
            victims,
            vec![
                NodeId::new(9),
                NodeId::new(8),
                NodeId::new(7),
                NodeId::new(6)
            ]
        );
        assert!(victims.iter().all(|v| v.index() >= 5));
    }

    #[test]
    fn run_config_fault_sizes_follow_thresholds() {
        let setup = PaperSetup::default();
        let crash = setup.run_config(Chain::Aptos, ScenarioKind::Crash);
        assert_eq!(crash.faults.victims().len(), 3, "f = t for Aptos");
        let crash = setup.run_config(Chain::Avalanche, ScenarioKind::Crash);
        assert_eq!(crash.faults.victims().len(), 1, "f = t for Avalanche");
        let transient = setup.run_config(Chain::Redbelly, ScenarioKind::Transient);
        assert_eq!(transient.faults.victims().len(), 4, "f = t + 1");
        let secure = setup.run_config(Chain::Solana, ScenarioKind::SecureClient);
        assert_eq!(secure.client_mode, ClientMode::Secure { replication: 4 });
        assert!(secure.faults.is_empty());
    }

    #[test]
    fn secure_replication_is_t_plus_one_at_every_network_size() {
        for n in [10, 16, 22, 40] {
            let setup = PaperSetup {
                n,
                ..PaperSetup::default()
            };
            for chain in Chain::ALL {
                let secure = setup.run_config(chain, ScenarioKind::SecureClient);
                assert_eq!(
                    secure.client_mode.replication(),
                    Chain::Redbelly.tolerated_faults(n) + 1,
                    "{} at n = {n}",
                    chain.name()
                );
            }
        }
    }

    #[test]
    fn quick_setup_is_proportional() {
        let setup = PaperSetup::quick(60, 1);
        assert_eq!(setup.fault_at, SimTime::from_secs(20));
        assert_eq!(setup.recover_at, SimTime::from_secs(40));
        assert!(setup.submit_until < setup.horizon);
    }

    #[test]
    fn from_str_round_trips_names_case_insensitively() {
        for kind in [ScenarioKind::Baseline]
            .into_iter()
            .chain(ScenarioKind::ALTERED)
        {
            assert_eq!(kind.name().parse(), Ok(kind));
            assert_eq!(kind.name().to_uppercase().parse(), Ok(kind));
        }
        assert_eq!("secure".parse(), Ok(ScenarioKind::SecureClient));
        assert_eq!("Secure".parse(), Ok(ScenarioKind::SecureClient));
        let err = "meteor"
            .parse::<ScenarioKind>()
            .expect_err("no such scenario");
        assert!(err.contains("meteor") && err.contains("partition"), "{err}");
    }

    #[test]
    fn scenario_names() {
        assert_eq!(ScenarioKind::Crash.name(), "crash");
        assert_eq!(ScenarioKind::ALTERED.len(), 4);
    }
}
