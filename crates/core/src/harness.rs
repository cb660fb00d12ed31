//! The experiment harness: deploys a simulated network, drives the
//! workload through clients, injects the fault schedule and collects
//! the client-observed latency distribution.

use std::collections::BTreeMap;

use stabl_sim::{
    ByzantineSpec, CaptureLevel, DetRng, EventCounters, LatencyModel, LatencyTopology, NodeId,
    PanicRecord, Protocol, SimBuilder, SimDuration, SimEvent, SimStats, SimTime, TimedEvent,
};
use stabl_types::{Transaction, TxId};

use crate::client::RetryPolicy;
use crate::commits::CommitIndex;
use crate::metrics::{Ecdf, EcdfError, StageLatencies, ThroughputSeries};
use crate::{ClientMode, FaultError, FaultSchedule, WorkloadSpec};

/// Full description of one experiment run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of validator nodes (the paper: 10).
    pub n: usize,
    /// Master seed; same seed ⇒ bit-identical run.
    pub seed: u64,
    /// Link latency model (the uniform fallback).
    pub latency: LatencyModel,
    /// Optional region-based latency topology; when set, per-pair models
    /// replace the uniform latency (geo-distributed deployments).
    pub topology: Option<LatencyTopology>,
    /// Simulated run length (the paper: 400 s).
    pub horizon: SimTime,
    /// The client workload.
    pub workload: WorkloadSpec,
    /// Client connection strategy.
    pub client_mode: ClientMode,
    /// Failures to inject (composable: node crashes, partitions,
    /// slowdowns and message-level link faults in one schedule).
    pub faults: FaultSchedule,
    /// Nodes that misbehave at the *protocol* level: the kernel
    /// mutates, equivocates, delays or withholds their outbound
    /// messages ([`SimBuilder::byzantine`]).
    pub byzantine: ByzantineSpec,
    /// Byzantine RPC nodes: they process the chain correctly but
    /// *withhold* commit confirmations from their clients (the attack
    /// the secure client defends against, §3/§7).
    pub byzantine_rpc: Vec<NodeId>,
    /// Client-side robustness: per-submission timeout, bounded
    /// exponential backoff and resubmission to alternate nodes. `None`
    /// reproduces the paper's fire-and-forget clients.
    pub retry: Option<RetryPolicy>,
    /// Liveness rule: the run lost liveness if transactions are left
    /// unresolved and nothing committed in this final window.
    pub stall_grace: SimDuration,
}

impl RunConfig {
    /// A small sane default for examples and tests: 10 nodes, 30 s, the
    /// standard 200 TPS workload, no faults.
    pub fn quick(seed: u64) -> RunConfig {
        let horizon = SimTime::from_secs(30);
        RunConfig {
            n: 10,
            seed,
            latency: LatencyModel::lan(),
            topology: None,
            horizon,
            workload: WorkloadSpec::paper_standard(SimTime::from_secs(25)),
            client_mode: ClientMode::Single,
            faults: FaultSchedule::none(),
            byzantine: ByzantineSpec::none(),
            byzantine_rpc: Vec::new(),
            retry: None,
            stall_grace: SimDuration::from_secs(10),
        }
    }
}

/// What one run measured.
///
/// Serialisable so the bench harness can memoise whole runs on disk:
/// latencies round-trip through JSON losslessly (shortest-representation
/// floats), so a cached run is bit-identical to a fresh one.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct RunResult {
    /// Client-observed latencies of committed transactions, seconds.
    pub latencies: Vec<f64>,
    /// Client-observed commit instants (same order as `latencies`).
    pub commit_times: Vec<SimTime>,
    /// Transactions submitted.
    pub submitted: usize,
    /// Transactions never (fully) committed by the end of the run.
    pub unresolved: usize,
    /// `true` if the chain stopped committing (liveness violation ⇒
    /// infinite sensitivity).
    pub lost_liveness: bool,
    /// Fatal node failures during the run.
    pub panics: Vec<PanicRecord>,
    /// Kernel traffic counters.
    pub stats: SimStats,
    /// Client resubmissions performed under the retry policy.
    pub retries: u64,
    /// Transactions whose client exhausted its retries and gave up.
    pub give_ups: u64,
    /// The run horizon (for throughput binning).
    pub horizon: SimTime,
    /// Per-stage latency decomposition of the committed transactions
    /// (queueing / consensus / delivery). Always computed — it derives
    /// from harness bookkeeping, not from event capture, so it is part
    /// of the deterministic artifact at every capture level.
    pub stages: StageLatencies,
}

impl RunResult {
    /// The latency eCDF of the run.
    ///
    /// # Errors
    ///
    /// Fails if nothing committed.
    pub fn ecdf(&self) -> Result<Ecdf, EcdfError> {
        Ecdf::new(self.latencies.iter().copied())
    }

    /// Commits per second over the run.
    pub fn throughput(&self) -> ThroughputSeries {
        ThroughputSeries::from_commit_times(self.commit_times.iter().copied(), self.horizon)
    }

    /// Fraction of submitted transactions that committed.
    pub fn commit_ratio(&self) -> f64 {
        if self.submitted == 0 {
            return 1.0;
        }
        (self.submitted - self.unresolved) as f64 / self.submitted as f64
    }
}

/// Runs one experiment over protocol `P`.
///
/// Clients submit per [`ClientMode`]; a transaction counts as committed
/// when a quorum of the nodes its client contacted reported the commit
/// (for the single mode, exactly the node that received it). The
/// returned latencies are the client-observed commit delays.
///
/// When [`RunConfig::byzantine`] names nodes, those nodes deviate at
/// the message layer ([`SimBuilder::byzantine`]); when
/// [`RunConfig::retry`] is set, unresolved submissions are retried
/// against alternate nodes with bounded exponential backoff.
///
/// # Panics
///
/// Panics if the workload references more client-facing nodes than the
/// network has, or if the fault schedule or [`RunConfig::byzantine`] is
/// invalid (the message is the [`FaultError`]'s).
pub fn run_protocol<P>(config: &RunConfig, protocol_config: P::Config) -> RunResult
where
    P: Protocol<Request = Transaction, Commit = TxId>,
{
    run_protocol_traced::<P>(config, protocol_config, CaptureLevel::Off).result
}

/// One traced experiment: the deterministic [`RunResult`] plus the
/// captured observability side-channel.
///
/// The trace is *observational only*: `result` is byte-identical across
/// capture levels (the determinism gate tests this), so traced reruns
/// of a cached campaign cell reproduce the exact cached artifact.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// What the run measured (identical at every capture level).
    pub result: RunResult,
    /// The structured event stream and counters recorded alongside.
    pub trace: RunTrace,
}

/// The observability side-channel of one run.
#[derive(Clone, Debug)]
pub struct RunTrace {
    /// The capture level the run recorded at.
    pub capture: CaptureLevel,
    /// Number of validator nodes (exporters need the pid/tid layout).
    pub n: usize,
    /// The run horizon.
    pub horizon: SimTime,
    /// The recorded events, in `(time, seq)` order after sorting —
    /// kernel events interleaved with harness client events.
    pub events: Vec<TimedEvent>,
    /// Per-kind event counts (also maintained at
    /// [`CaptureLevel::Counters`], where `events` stays empty).
    pub counters: EventCounters,
    /// Events evicted from the bounded recorder ring.
    pub dropped_events: u64,
}

/// Runs one experiment like [`run_protocol`], additionally recording
/// the structured event stream at `capture`.
pub fn run_protocol_traced<P>(
    config: &RunConfig,
    protocol_config: P::Config,
    capture: CaptureLevel,
) -> TracedRun
where
    P: Protocol<Request = Transaction, Commit = TxId>,
{
    run_inner::<P>(config, protocol_config, capture)
}

fn run_inner<P>(config: &RunConfig, protocol_config: P::Config, capture: CaptureLevel) -> TracedRun
where
    P: Protocol<Request = Transaction, Commit = TxId>,
{
    // A Byzantine node outside the network would silently never
    // deviate; reject it like any other victim, before simulating.
    for &node in config.byzantine.nodes() {
        let n = config.n;
        assert!(
            node.index() < n,
            "{}",
            FaultError::VictimOutOfRange { node, n }
        );
    }
    // One client-facing validator per client, widened when a client
    // needs more distinct replicas than there are clients (the secure
    // client's t + 1 exceeds the paper's five clients from n = 16 on).
    let front_nodes = config
        .workload
        .clients
        .max(config.client_mode.replication())
        .min(config.n);
    let mut builder = SimBuilder::new(config.n, config.seed);
    builder.latency(config.latency);
    builder.capture(capture);
    builder.byzantine(config.byzantine.clone());
    if let Some(topology) = config.topology.clone() {
        builder.topology(topology);
    }
    let mut sim = builder.build::<P>(protocol_config);
    config.faults.schedule(&mut sim);

    // Clients reach their nodes over the same network fabric: each
    // submission pays an independent client-link delay.
    let mut client_rng = DetRng::new(config.seed ^ 0xC11E_17DE_1A75_0000);
    let submissions = config.workload.generate_seeded(config.seed);
    // The nodes each submission has been sent to, grown by retries.
    let mut contacted: Vec<Vec<NodeId>> = submissions
        .iter()
        .map(|s| config.client_mode.nodes_for(s.client, front_nodes))
        .collect();
    // Earliest instant each submission's request reaches any validator:
    // the queueing/consensus stage boundary.
    let mut first_arrival: Vec<SimTime> = vec![SimTime::MAX; submissions.len()];
    for (i, submission) in submissions.iter().enumerate() {
        for node in &contacted[i] {
            let delay = config.latency.sample(&mut client_rng);
            let arrives = submission.at + delay;
            first_arrival[i] = first_arrival[i].min(arrives);
            sim.schedule_request(arrives, *node, submission.transaction);
            sim.record_event(
                submission.at,
                SimEvent::ClientSubmitted {
                    client: submission.client as u64,
                    node: *node,
                },
            );
        }
    }

    let mut commits = CommitIndex::new(submissions.iter().map(|s| s.transaction.id()), config.n);
    let mut retries = 0u64;
    let mut give_ups = 0u64;
    let quorum = config.client_mode.required_quorum();

    if let Some(policy) = config.retry {
        // Timeout agenda: at each deadline, run the kernel up to that
        // instant and decide per pending submission whether to retry.
        // BTreeMap keeps deadlines in deterministic ascending order.
        let mut agenda: BTreeMap<SimTime, Vec<(usize, u32)>> = BTreeMap::new();
        for (i, submission) in submissions.iter().enumerate() {
            let deadline = submission.at + policy.timeout;
            if deadline < config.horizon {
                agenda.entry(deadline).or_default().push((i, 0));
            }
        }
        while let Some((deadline, batch)) = agenda.pop_first() {
            sim.run_until(deadline);
            commits.drain(&mut sim);
            for (i, attempt) in batch {
                let submission = &submissions[i];
                if commits
                    .resolution(i, &contacted[i], &config.byzantine_rpc, quorum)
                    .is_some()
                {
                    continue;
                }
                if attempt >= policy.max_retries {
                    give_ups += 1;
                    sim.record_event(
                        deadline,
                        SimEvent::ClientGaveUp {
                            client: submission.client as u64,
                        },
                    );
                    continue;
                }
                retries += 1;
                let resubmit_at = deadline + policy.backoff_for(attempt);
                // Walk one replica set further along the front-node
                // ring each attempt, reaching nodes the original
                // submission never touched.
                let shift = (attempt as usize + 1) * config.client_mode.replication();
                for node in config
                    .client_mode
                    .nodes_for(submission.client + shift, front_nodes)
                {
                    let delay = config.latency.sample(&mut client_rng);
                    let arrives = resubmit_at + delay;
                    first_arrival[i] = first_arrival[i].min(arrives);
                    sim.schedule_request(arrives, node, submission.transaction);
                    sim.record_event(
                        resubmit_at,
                        SimEvent::ClientRetried {
                            client: submission.client as u64,
                            node,
                        },
                    );
                    if !contacted[i].contains(&node) {
                        contacted[i].push(node);
                    }
                }
                let next_deadline = resubmit_at + policy.timeout;
                if next_deadline < config.horizon {
                    agenda
                        .entry(next_deadline)
                        .or_default()
                        .push((i, attempt + 1));
                }
            }
        }
    }
    sim.run_until(config.horizon);
    commits.drain(&mut sim);

    let mut latencies = Vec::with_capacity(submissions.len());
    let mut commit_times = Vec::with_capacity(submissions.len());
    let mut unresolved = 0usize;
    let mut stages = StageLatencies::new();
    for (i, submission) in submissions.iter().enumerate() {
        // Observations the client can actually collect: Byzantine RPC
        // nodes withhold theirs.
        match commits.resolution(i, &contacted[i], &config.byzantine_rpc, quorum) {
            Some(resolved_at) => {
                latencies.push((resolved_at - submission.at).as_secs_f64());
                commit_times.push(resolved_at);
                // Stage split: submit → first arrival → first commit
                // anywhere → the client's quorum resolution. Saturating
                // since a commit can only follow some arrival, but the
                // *observed* earliest pair may interleave under retries.
                let arrived = first_arrival[i];
                let committed = commits.earliest_commit(i).unwrap_or(resolved_at);
                stages.record(
                    arrived.saturating_since(submission.at),
                    committed.saturating_since(arrived),
                    resolved_at.saturating_since(committed),
                );
            }
            None => unresolved += 1,
        }
    }

    let lost_liveness =
        unresolved > 0 && commits.last_commit() + config.stall_grace < config.horizon;

    let result = RunResult {
        latencies,
        commit_times,
        submitted: submissions.len(),
        unresolved,
        lost_liveness,
        panics: sim.panics().to_vec(),
        stats: sim.stats(),
        retries,
        give_ups,
        horizon: config.horizon,
        stages,
    };
    let dropped_events = sim.recorder().dropped_events();
    let counters = sim.event_counters();
    let mut events = sim.take_events();
    // Harness client events were recorded at scheduling time, before
    // the kernel events they precede on the simulated clock: re-sort
    // into timeline order (seq breaks ties deterministically).
    events.sort_by_key(|e| (e.time, e.seq));
    TracedRun {
        result,
        trace: RunTrace {
            capture,
            n: config.n,
            horizon: config.horizon,
            events,
            counters,
            dropped_events,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabl_sim::{Ctx, NodeId};

    /// A toy chain that commits every request everywhere after one
    /// broadcast hop — enough to validate the harness bookkeeping.
    struct Instant;

    impl Protocol for Instant {
        type Msg = Transaction;
        type Request = Transaction;
        type Commit = TxId;
        type Timer = ();
        type Config = ();

        fn new(_: NodeId, _: usize, _: &(), _: &mut Ctx<'_, Self>) -> Self {
            Instant
        }
        fn on_message(&mut self, _: NodeId, tx: Transaction, ctx: &mut Ctx<'_, Self>) {
            ctx.commit(tx.id());
        }
        fn on_timer(&mut self, _: (), _: &mut Ctx<'_, Self>) {}
        fn on_request(&mut self, tx: Transaction, ctx: &mut Ctx<'_, Self>) {
            ctx.broadcast(tx);
            ctx.commit(tx.id());
        }
        fn on_restart(&mut self, _: &mut Ctx<'_, Self>) {}
    }

    #[test]
    fn single_mode_resolves_at_receiving_node() {
        let config = RunConfig::quick(1);
        let result = run_protocol::<Instant>(&config, ());
        assert_eq!(result.unresolved, 0);
        assert!(!result.lost_liveness);
        assert_eq!(result.latencies.len(), result.submitted);
        // Commits happen one client-link delay after submission.
        assert!(result.latencies.iter().all(|l| *l <= 0.010));
        assert!(
            result.latencies.iter().all(|l| *l >= 0.005),
            "client link delay applies"
        );
        assert_eq!(result.commit_ratio(), 1.0);
    }

    #[test]
    fn secure_mode_waits_for_all_replicas() {
        let mut config = RunConfig::quick(2);
        config.client_mode = ClientMode::paper_secure(config.n);
        let result = run_protocol::<Instant>(&config, ());
        assert_eq!(result.unresolved, 0);
        // The slowest of 4 independent client links dominates: the mean
        // latency exceeds the single-mode mean (max of 4 uniform draws).
        let single = run_protocol::<Instant>(&RunConfig::quick(2), ());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&result.latencies) > mean(&single.latencies) + 0.0005,
            "secure mean {} vs single mean {}",
            mean(&result.latencies),
            mean(&single.latencies)
        );
    }

    #[test]
    fn byzantine_rpc_starves_single_and_wait_all_clients() {
        // A withholding node breaks the client pinned to it…
        let mut config = RunConfig::quick(6);
        config.byzantine_rpc = vec![NodeId::new(0)];
        let single = run_protocol::<Instant>(&config, ());
        assert!(single.unresolved > 0, "client 0 never hears back");
        // …and the paper's wait-for-all secure client makes it worse:
        // every client whose replica set contains the liar stalls.
        config.client_mode = ClientMode::paper_secure(config.n);
        let wait_all = run_protocol::<Instant>(&config, ());
        assert!(
            wait_all.unresolved > single.unresolved,
            "wait-all: {} vs single: {}",
            wait_all.unresolved,
            single.unresolved
        );
        // The credence client accepts at t+1 matching observations and
        // rides through the withholder.
        config.client_mode = ClientMode::credence(3);
        let credence = run_protocol::<Instant>(&config, ());
        assert_eq!(credence.unresolved, 0, "quorum reads tolerate the liar");
    }

    #[test]
    fn credence_resolves_at_the_quorum_th_observation() {
        let mut config = RunConfig::quick(7);
        config.client_mode = ClientMode::Credence {
            replication: 4,
            quorum: 2,
        };
        let quorum2 = run_protocol::<Instant>(&config, ());
        config.client_mode = ClientMode::Secure { replication: 4 };
        let wait_all = run_protocol::<Instant>(&config, ());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&quorum2.latencies) < mean(&wait_all.latencies),
            "accepting at the 2nd observation beats waiting for the 4th"
        );
    }

    #[test]
    fn crashing_every_node_is_a_liveness_violation() {
        let mut config = RunConfig::quick(3);
        config.faults = FaultSchedule::crash(NodeId::all(10).collect(), SimTime::from_secs(10));
        let result = run_protocol::<Instant>(&config, ());
        assert!(result.unresolved > 0);
        assert!(result.lost_liveness);
        assert!(result.commit_ratio() < 1.0);
    }

    /// A tight retry policy so retries land well inside the 30 s quick
    /// horizon.
    fn tight_retry() -> RetryPolicy {
        RetryPolicy {
            timeout: SimDuration::from_secs(2),
            max_retries: 3,
            backoff_base: SimDuration::from_millis(500),
            backoff_factor_permille: 2000,
            backoff_cap: SimDuration::from_secs(4),
        }
    }

    #[test]
    fn retry_is_a_noop_when_everything_resolves() {
        let mut config = RunConfig::quick(8);
        config.retry = Some(tight_retry());
        let with_retry = run_protocol::<Instant>(&config, ());
        config.retry = None;
        let without = run_protocol::<Instant>(&config, ());
        assert_eq!(with_retry.retries, 0);
        assert_eq!(with_retry.give_ups, 0);
        assert_eq!(with_retry.latencies, without.latencies);
        assert_eq!(with_retry.stats, without.stats);
    }

    #[test]
    fn retry_routes_around_a_withholding_rpc_node() {
        // Node 0 withholds its outbound protocol messages AND its RPC
        // confirmations: without retries, every single-mode submission
        // pinned to it stays unresolved.
        let mut config = RunConfig::quick(6);
        config.byzantine =
            ByzantineSpec::new([NodeId::new(0)], stabl_sim::ByzantineBehavior::Withhold);
        config.byzantine_rpc = vec![NodeId::new(0)];
        let stuck = run_protocol::<Instant>(&config, ());
        assert!(stuck.unresolved > 0, "client 0 never hears back");
        assert_eq!(stuck.retries, 0);

        // With retries the client resubmits to the next node along the
        // ring and resolves everything.
        config.retry = Some(tight_retry());
        let retried = run_protocol::<Instant>(&config, ());
        assert!(retried.retries > 0, "timeouts trigger resubmission");
        assert_eq!(retried.unresolved, 0, "alternate nodes resolve all");
        assert_eq!(retried.give_ups, 0);
        // Retried transactions pay timeout + backoff before resolving.
        let slowest = retried.latencies.iter().copied().fold(0.0f64, f64::max);
        assert!(slowest > 2.0, "retried latencies include the timeout");
    }

    #[test]
    fn exhausted_retries_count_as_give_ups() {
        let mut config = RunConfig::quick(9);
        config.faults = FaultSchedule::crash(NodeId::all(10).collect(), SimTime::from_secs(5));
        config.retry = Some(tight_retry());
        let result = run_protocol::<Instant>(&config, ());
        assert!(result.retries > 0, "clients retry the dead network");
        assert!(result.give_ups > 0, "then give up after max_retries");
        assert!(result.lost_liveness);
    }

    #[test]
    #[should_panic(expected = "victim node12 outside the 10-node network")]
    fn byzantine_node_outside_the_network_is_rejected() {
        let mut config = RunConfig::quick(10);
        config.byzantine =
            ByzantineSpec::new([NodeId::new(12)], stabl_sim::ByzantineBehavior::Withhold);
        run_protocol::<Instant>(&config, ());
    }

    #[test]
    fn byzantine_withholder_suppresses_traffic() {
        let mut config = RunConfig::quick(11);
        let baseline = run_protocol::<Instant>(&config, ());
        config.byzantine =
            ByzantineSpec::new([NodeId::new(0)], stabl_sim::ByzantineBehavior::Withhold);
        let withheld = run_protocol::<Instant>(&config, ());
        assert!(
            withheld.stats.messages_sent < baseline.stats.messages_sent,
            "node 0's broadcasts are withheld: {} vs {}",
            withheld.stats.messages_sent,
            baseline.stats.messages_sent
        );
        // Single-mode clients of node 0 still resolve: the node commits
        // locally, it just never tells the rest of the network.
        assert_eq!(withheld.unresolved, 0);
    }

    #[test]
    fn composed_adversity_is_deterministic() {
        let mut config = RunConfig::quick(12);
        config.faults = FaultSchedule::link_degrade(
            stabl_sim::LinkFault::all().with_drop(0.05),
            SimTime::from_secs(2),
            SimTime::from_secs(20),
        )
        .and(crate::FaultAction::Slowdown {
            nodes: vec![NodeId::new(8)],
            extra: SimDuration::from_millis(50),
            at: SimTime::from_secs(5),
            until: SimTime::from_secs(15),
        });
        config.byzantine =
            ByzantineSpec::new([NodeId::new(9)], stabl_sim::ByzantineBehavior::Equivocate);
        config.retry = Some(tight_retry());
        let a = run_protocol::<Instant>(&config, ());
        let b = run_protocol::<Instant>(&config, ());
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.give_ups, b.give_ups);
        let json_a = serde_json::to_string(&a).expect("serialise");
        let json_b = serde_json::to_string(&b).expect("serialise");
        assert_eq!(json_a, json_b, "byte-identical artifacts");
    }

    #[test]
    fn throughput_series_counts_commits() {
        let config = RunConfig::quick(4);
        let result = run_protocol::<Instant>(&config, ());
        let series = result.throughput();
        let total: u64 = series.bins().iter().map(|b| *b as u64).sum();
        assert_eq!(total as usize, result.latencies.len());
        assert!(
            (series.mean_over(2, 20) - 200.0).abs() < 10.0,
            "≈200 TPS offered"
        );
    }

    #[test]
    fn deterministic() {
        let config = RunConfig::quick(5);
        let a = run_protocol::<Instant>(&config, ());
        let b = run_protocol::<Instant>(&config, ());
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.stats, b.stats);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any composed fault schedule replayed with the same seed
        /// yields a byte-identical serialised RunResult, and the link
        /// drop/duplication counters match the network's book-keeping.
        #[test]
        fn any_schedule_replays_byte_identically(
            (seed, crash_node, slow_node) in (0u64..1_000, 6u32..8, 8u32..10),
            (drop_pct, dup_pct, with_retry) in (0u8..50, 0u8..50, 0u8..2),
        ) {
            let mut config = RunConfig::quick(seed);
            // A small run keeps the 24 cases fast.
            config.horizon = SimTime::from_secs(8);
            config.workload.end = SimTime::from_secs(6);
            config.workload.tps_per_client = 10;
            config.stall_grace = SimDuration::from_secs(3);
            config.faults = FaultSchedule::crash(
                vec![NodeId::new(crash_node)],
                SimTime::from_secs(2),
            )
            .and(crate::FaultAction::Slowdown {
                nodes: vec![NodeId::new(slow_node)],
                extra: SimDuration::from_millis(100),
                at: SimTime::from_secs(1),
                until: SimTime::from_secs(5),
            })
            .and(crate::FaultAction::LinkDegrade {
                fault: stabl_sim::LinkFault::all()
                    .with_drop(f64::from(drop_pct) / 100.0)
                    .with_duplicate(f64::from(dup_pct) / 100.0),
                at: SimTime::from_secs(1),
                until: SimTime::from_secs(6),
            });
            if with_retry == 1 {
                config.retry = Some(tight_retry());
            }
            let a = run_protocol::<Instant>(&config, ());
            let b = run_protocol::<Instant>(&config, ());
            let json_a = serde_json::to_string(&a).expect("serialise");
            let json_b = serde_json::to_string(&b).expect("serialise");
            prop_assert_eq!(json_a, json_b, "same seed must replay byte-identically");
            prop_assert!(drop_pct == 0 || a.stats.messages_dropped_link > 0);
            prop_assert!(dup_pct == 0 || a.stats.messages_duplicated_link > 0);
        }

        /// Tracing observes, never steers: across every capture level
        /// the serialised RunResult is byte-identical for arbitrary
        /// fault schedules, while the recorder's own output grows
        /// monotonically with the level.
        #[test]
        fn capture_level_never_changes_the_result(
            (seed, crash_node, drop_pct) in (0u64..1_000, 5u32..10, 0u8..50),
            (crash_at, heal_at) in (1u64..4, 4u64..7),
        ) {
            let mut config = RunConfig::quick(seed);
            config.horizon = SimTime::from_secs(8);
            config.workload.end = SimTime::from_secs(6);
            config.workload.tps_per_client = 10;
            config.stall_grace = SimDuration::from_secs(3);
            config.faults = FaultSchedule::crash(
                vec![NodeId::new(crash_node)],
                SimTime::from_secs(crash_at),
            )
            .and(crate::FaultAction::LinkDegrade {
                fault: stabl_sim::LinkFault::all().with_drop(f64::from(drop_pct) / 100.0),
                at: SimTime::from_secs(crash_at),
                until: SimTime::from_secs(heal_at),
            });
            config.retry = Some(tight_retry());
            let off = run_protocol_traced::<Instant>(&config, (), CaptureLevel::Off);
            let events = run_protocol_traced::<Instant>(&config, (), CaptureLevel::Events);
            let full = run_protocol_traced::<Instant>(&config, (), CaptureLevel::Full);
            let json_off = serde_json::to_string(&off.result).expect("serialise");
            let json_events = serde_json::to_string(&events.result).expect("serialise");
            let json_full = serde_json::to_string(&full.result).expect("serialise");
            prop_assert_eq!(&json_off, &json_events, "Events capture steered the run");
            prop_assert_eq!(&json_off, &json_full, "Full capture steered the run");
            prop_assert!(off.trace.events.is_empty(), "Off must record nothing");
            prop_assert_eq!(off.trace.counters.total(), 0);
            prop_assert!(
                events.trace.events.len() + events.trace.dropped_events as usize
                    <= full.trace.events.len() + full.trace.dropped_events as usize,
                "Full must record at least what Events records"
            );
            prop_assert!(full.trace.counters.commits > 0, "the run commits");
        }
    }
}
