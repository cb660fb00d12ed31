//! Byzantine node behaviors: which nodes misbehave on their outbound
//! traffic, and how.
//!
//! The paper measures how chains tolerate *Byzantine* deviations, not
//! just crashes (§2: Redbelly's t < n/3, Algorand's 20 % assumption).
//! A [`ByzantineSpec`] handed to [`SimBuilder::byzantine`] names the
//! deviating nodes. Every node still runs the unmodified [`Protocol`];
//! the kernel applies the deviation where a node's messages enter the
//! network — the same place partitions, link faults and slowdowns act —
//! in one of four ways:
//!
//! * **Withhold** — outbound messages are silently discarded (a mute
//!   node that still processes inbound traffic, like a validator whose
//!   egress died).
//! * **Delay** — every outbound message is held back by a fixed extra
//!   delay before entering the network (a laggard that keeps
//!   responding, the slow-but-Byzantine case). A held message is one of
//!   its sender's timers: it is counted as fired when released, and as
//!   stale — never sent — if the sender crashed in between.
//! * **Mutate** — outbound payloads are replaced with the *stale*
//!   payload from the node's previous callback, corrupting its stream
//!   with replayed state. Mutation-by-replay is the only
//!   protocol-agnostic corruption possible: `Msg` is an opaque
//!   associated type, and a stale-but-well-formed message is exactly
//!   the kind of equivocation consensus protocols must reject.
//! * **Equivocate** — conflicting payloads to different peers: peers
//!   with an even node index receive the fresh payload, peers with an
//!   odd index receive the stale one from the previous callback.
//!
//! The stale payload is fixed for the whole of a callback and forgotten
//! when the node restarts. Honest nodes, and every node under a spec
//! with no Byzantine nodes, take the kernel's ordinary send path and
//! draw no extra randomness.
//!
//! [`SimBuilder::byzantine`]: crate::SimBuilder::byzantine
//! [`Protocol`]: crate::Protocol

use std::collections::BTreeSet;

use crate::{NodeId, SimDuration};

/// How a Byzantine node deviates (see the module docs for semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByzantineBehavior {
    /// Replace outbound payloads with the previous callback's payload.
    Mutate,
    /// Fresh payload to even-indexed peers, stale payload to odd ones.
    Equivocate,
    /// Hold every outbound message back by this extra delay.
    Delay(SimDuration),
    /// Discard every outbound message.
    Withhold,
}

/// Which nodes misbehave, and how.
///
/// # Examples
///
/// ```
/// use stabl_sim::{ByzantineBehavior, ByzantineSpec, NodeId};
///
/// let spec = ByzantineSpec::new([NodeId::new(3)], ByzantineBehavior::Equivocate);
/// assert!(spec.is_active());
/// assert!(spec.is_byzantine(NodeId::new(3)));
/// assert!(!spec.is_byzantine(NodeId::new(0)));
/// assert!(!ByzantineSpec::none().is_active());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ByzantineSpec {
    nodes: BTreeSet<NodeId>,
    behavior: ByzantineBehavior,
}

impl ByzantineSpec {
    /// A spec with no Byzantine nodes: every node sends honestly.
    pub fn none() -> ByzantineSpec {
        ByzantineSpec {
            nodes: BTreeSet::new(),
            behavior: ByzantineBehavior::Equivocate,
        }
    }

    /// Makes every node in `nodes` deviate with `behavior`.
    pub fn new<I>(nodes: I, behavior: ByzantineBehavior) -> ByzantineSpec
    where
        I: IntoIterator<Item = NodeId>,
    {
        ByzantineSpec {
            nodes: nodes.into_iter().collect(),
            behavior,
        }
    }

    /// `true` if at least one node misbehaves.
    pub fn is_active(&self) -> bool {
        !self.nodes.is_empty()
    }

    /// `true` if `node` is Byzantine under this spec.
    pub fn is_byzantine(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// The misbehaving nodes.
    pub fn nodes(&self) -> &BTreeSet<NodeId> {
        &self.nodes
    }

    /// The deviation applied to every Byzantine node.
    pub fn behavior(&self) -> ByzantineBehavior {
        self.behavior
    }
}

impl Default for ByzantineSpec {
    fn default() -> Self {
        ByzantineSpec::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CaptureLevel, Ctx, Protocol, SimBuilder, SimEvent, SimTime, Simulation};

    /// Each node broadcasts an increasing sequence number every 100 ms
    /// and commits `(sender, seq)` for every broadcast it receives.
    #[derive(Debug)]
    struct Counter {
        seq: u64,
    }

    impl Protocol for Counter {
        type Msg = u64;
        type Request = u64;
        type Commit = (u32, u64);
        type Timer = ();
        type Config = ();

        fn new(_: NodeId, _: usize, _: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            ctx.set_timer(SimDuration::from_millis(100), ());
            Counter { seq: 0 }
        }
        fn on_message(&mut self, from: NodeId, seq: u64, ctx: &mut Ctx<'_, Self>) {
            ctx.commit((from.as_u32(), seq));
        }
        fn on_timer(&mut self, _: (), ctx: &mut Ctx<'_, Self>) {
            self.seq += 1;
            ctx.broadcast(self.seq);
            ctx.set_timer(SimDuration::from_millis(100), ());
        }
        fn on_request(&mut self, seq: u64, ctx: &mut Ctx<'_, Self>) {
            ctx.broadcast(seq);
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_, Self>) {
            ctx.set_timer(SimDuration::from_millis(100), ());
        }
    }

    fn byz_sim(n: usize, seed: u64, spec: ByzantineSpec) -> Simulation<Counter> {
        SimBuilder::new(n, seed).byzantine(spec).build(())
    }

    fn commits_of(sim: &Simulation<Counter>) -> Vec<(u64, u32, (u32, u64))> {
        sim.commits()
            .iter()
            .map(|c| (c.time.as_micros(), c.node.as_u32(), c.commit))
            .collect()
    }

    #[test]
    fn inactive_spec_takes_the_honest_path() {
        // Equal stats and commit instants mean equal RNG draws: every
        // send samples its link delay from the shared network stream.
        let mut plain = Simulation::<Counter>::new(3, 42, ());
        plain.run_until(SimTime::from_secs(2));
        let mut inactive = byz_sim(3, 42, ByzantineSpec::none());
        inactive.run_until(SimTime::from_secs(2));
        assert_eq!(commits_of(&plain), commits_of(&inactive));
        assert_eq!(plain.stats(), inactive.stats());
    }

    #[test]
    fn withholding_node_goes_mute() {
        let spec = ByzantineSpec::new([NodeId::new(2)], ByzantineBehavior::Withhold);
        let mut sim = byz_sim(3, 7, spec);
        sim.run_until(SimTime::from_secs(2));
        let from_byz = sim.commits().iter().filter(|c| c.commit.0 == 2).count();
        assert_eq!(from_byz, 0, "withheld broadcasts never arrive");
        let at_byz = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(2))
            .count();
        assert!(at_byz > 0, "the mute node still processes inbound traffic");
    }

    #[test]
    fn byzantine_nodes_run_the_unmodified_protocol() {
        let spec = ByzantineSpec::new([NodeId::new(2)], ByzantineBehavior::Withhold);
        let mut sim = byz_sim(3, 7, spec);
        sim.run_until(SimTime::from_secs(2));
        let byzantine: &Counter = sim.node(NodeId::new(2));
        let honest: &Counter = sim.node(NodeId::new(0));
        assert!(byzantine.seq > 0);
        assert_eq!(byzantine.seq, honest.seq, "the deviation is below the node");
    }

    #[test]
    fn delaying_node_arrives_late() {
        let first_arrival = |spec: ByzantineSpec| {
            let mut sim = byz_sim(2, 9, spec);
            sim.run_until(SimTime::from_secs(2));
            sim.commits()
                .iter()
                .find(|c| c.commit.0 == 1)
                .map(|c| c.time)
                .expect("node1's broadcast observed")
        };
        let honest = first_arrival(ByzantineSpec::none());
        let delayed = first_arrival(ByzantineSpec::new(
            [NodeId::new(1)],
            ByzantineBehavior::Delay(SimDuration::from_millis(500)),
        ));
        assert!(
            delayed >= honest + SimDuration::from_millis(450),
            "delay must hold messages back: {honest} vs {delayed}"
        );
    }

    #[test]
    fn held_message_dies_with_its_crashed_sender() {
        let node1 = NodeId::new(1);
        let spec = ByzantineSpec::new(
            [node1],
            ByzantineBehavior::Delay(SimDuration::from_millis(500)),
        );
        let mut sim = SimBuilder::new(2, 9)
            .capture(CaptureLevel::Events)
            .byzantine(spec)
            .build::<Counter>(());
        // Node 1 broadcasts at 100 ms (held until 600 ms), re-arms its
        // timer for 200 ms and crashes in between.
        sim.schedule_crash(SimTime::from_millis(150), node1);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(
            sim.stats().timers_stale,
            2,
            "the 200 ms timer and the held send"
        );
        let sent_by_node1 = sim
            .take_events()
            .iter()
            .filter(|e| matches!(e.event, SimEvent::MessageSent { from, .. } if from == node1))
            .count();
        assert_eq!(
            sent_by_node1, 0,
            "the held message never enters the network"
        );
    }

    #[test]
    fn equivocating_node_sends_conflicting_payloads() {
        // 3 nodes; node2 equivocates. In round k, node0 (even) sees seq
        // k while node1 (odd) sees seq k-1: conflicting views of the
        // same broadcast.
        let spec = ByzantineSpec::new([NodeId::new(2)], ByzantineBehavior::Equivocate);
        let mut sim = byz_sim(3, 11, spec);
        sim.run_until(SimTime::from_secs(1));
        let seen_by = |node: u32| -> Vec<u64> {
            sim.commits()
                .iter()
                .filter(|c| c.node == NodeId::new(node) && c.commit.0 == 2)
                .map(|c| c.commit.1)
                .collect()
        };
        let even_view = seen_by(0);
        let odd_view = seen_by(1);
        assert!(!even_view.is_empty() && !odd_view.is_empty());
        assert_ne!(
            even_view, odd_view,
            "peers must observe conflicting streams"
        );
        assert!(
            odd_view.iter().zip(even_view.iter()).all(|(o, e)| o <= e),
            "odd peers lag behind: {odd_view:?} vs {even_view:?}"
        );
    }

    #[test]
    fn mutating_node_replays_stale_payloads() {
        let spec = ByzantineSpec::new([NodeId::new(1)], ByzantineBehavior::Mutate);
        let mut sim = byz_sim(2, 13, spec);
        sim.run_until(SimTime::from_secs(1));
        let seen: Vec<u64> = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0) && c.commit.0 == 1)
            .map(|c| c.commit.1)
            .collect();
        // Round k delivers the payload of round k-1 (round 1 passes
        // through unchanged): 1, 1, 2, 3, ... instead of 1, 2, 3, ...
        assert!(seen.len() >= 3);
        assert_eq!(seen[0], 1);
        assert_eq!(seen[1], 1, "round 2 replays round 1's payload");
        assert!(seen.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn byzantine_runs_are_deterministic() {
        let run = |seed| {
            let spec = ByzantineSpec::new([NodeId::new(0)], ByzantineBehavior::Equivocate);
            let mut sim = byz_sim(4, seed, spec);
            sim.run_until(SimTime::from_secs(1));
            commits_of(&sim)
        };
        assert_eq!(run(5), run(5));
    }
}
