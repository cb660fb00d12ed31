//! # stabl-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate of the Stabl reproduction: a single-threaded,
//! fully deterministic discrete-event simulator on which the five blockchain
//! protocols (`stabl-algorand`, `stabl-aptos`, `stabl-avalanche`,
//! `stabl-redbelly`, `stabl-solana`) run as [`Protocol`] state machines.
//!
//! It replaces the paper's physical testbed (a Proxmox cluster with
//! netfilter-based fault injection): nodes are processes with a
//! crash/restart lifecycle, the network delivers messages with configurable
//! latency and honours netfilter-like [`LinkFault`] rules (a partition is a
//! pair of severs), and every source of randomness flows from one seed so a
//! run is reproducible bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use stabl_sim::{Ctx, NodeId, Protocol, SimDuration, SimTime, Simulation};
//!
//! /// A node that echoes every request to all peers and commits on receipt.
//! struct Echo;
//!
//! impl Protocol for Echo {
//!     type Msg = u64;
//!     type Request = u64;
//!     type Commit = u64;
//!     type Timer = ();
//!     type Config = ();
//!
//!     fn new(_: NodeId, _: usize, _: &(), _: &mut Ctx<'_, Self>) -> Self { Echo }
//!     fn on_message(&mut self, _: NodeId, m: u64, ctx: &mut Ctx<'_, Self>) { ctx.commit(m); }
//!     fn on_timer(&mut self, _: (), _: &mut Ctx<'_, Self>) {}
//!     fn on_request(&mut self, r: u64, ctx: &mut Ctx<'_, Self>) { ctx.broadcast(r); }
//!     fn on_restart(&mut self, _: &mut Ctx<'_, Self>) {}
//! }
//!
//! let mut sim = Simulation::<Echo>::new(3, 42, ());
//! sim.schedule_request(SimTime::from_secs(1), NodeId::new(0), 7);
//! sim.run_until(SimTime::from_secs(2));
//! assert_eq!(sim.commits().len(), 2); // both peers committed the echo
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::float_cmp))]
#![warn(missing_docs)]

mod agenda;
mod byzantine;
mod conn;
mod net;
mod protocol;
mod resource;
mod rng;
mod serde_support;
mod sim;
mod stats;
mod time;
mod trace;

pub use agenda::{Agenda, BUCKET_WIDTH_MICROS, RING_BUCKETS};
pub use byzantine::{ByzantineBehavior, ByzantineSpec};
pub use conn::{ConnAction, ConnConfig, ConnectionManager};
pub use net::{LatencyModel, LatencyTopology, LinkFault, Network, NodeId};
pub use protocol::{Ctx, Protocol, TimerId};
pub use resource::CpuMeter;
pub use rng::DetRng;
pub use sim::{millis, secs, NodeStatus, SimBuilder, Simulation};
pub use stats::{CommitRecord, ContentionStats, PanicRecord, SimStats};
pub use time::{SimDuration, SimTime};
pub use trace::{
    CaptureLevel, DropCause, EventCounters, EventRecorder, FaultKind, SimEvent, TimedEvent,
    DEFAULT_EVENT_CAP,
};

#[cfg(test)]
mod kernel_prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Trivial protocol committing every received broadcast.
    struct Echoes;
    impl Protocol for Echoes {
        type Msg = u64;
        type Request = u64;
        type Commit = u64;
        type Timer = ();
        type Config = ();
        fn new(_: NodeId, _: usize, _: &(), _: &mut Ctx<'_, Self>) -> Self {
            Echoes
        }
        fn on_message(&mut self, _: NodeId, m: u64, ctx: &mut Ctx<'_, Self>) {
            ctx.commit(m);
        }
        fn on_timer(&mut self, _: (), _: &mut Ctx<'_, Self>) {}
        fn on_request(&mut self, r: u64, ctx: &mut Ctx<'_, Self>) {
            ctx.broadcast(r);
        }
        fn on_restart(&mut self, _: &mut Ctx<'_, Self>) {}
    }

    #[derive(Clone, Debug)]
    enum Op {
        Request {
            at_ms: u64,
            node: u32,
            value: u64,
        },
        Crash {
            at_ms: u64,
            node: u32,
        },
        Restart {
            at_ms: u64,
            node: u32,
        },
        Partition {
            at_ms: u64,
            len_ms: u64,
            node: u32,
        },
        LinkFault {
            at_ms: u64,
            len_ms: u64,
            node: u32,
            drop_pct: u8,
            dup_pct: u8,
            reorder_pct: u8,
        },
        Sever {
            at_ms: u64,
            len_ms: u64,
            node: u32,
        },
        Slowdown {
            at_ms: u64,
            len_ms: u64,
            node: u32,
            extra_ms: u64,
        },
        /// Lossy all-link degradation with a total cut of `node` (a
        /// partition, or a sever of its inbound links) inside it, so
        /// the cut lands on links a probabilistic rule also matches.
        Stacked {
            at_ms: u64,
            len_ms: u64,
            node: u32,
            pct: u8,
            partition: bool,
        },
    }

    fn op_strategy(n: u32) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..5_000, 0..n, proptest::num::u64::ANY)
                .prop_map(|(at_ms, node, value)| Op::Request { at_ms, node, value }),
            (0u64..5_000, 0..n).prop_map(|(at_ms, node)| Op::Crash { at_ms, node }),
            (0u64..5_000, 0..n).prop_map(|(at_ms, node)| Op::Restart { at_ms, node }),
            (0u64..5_000, 1u64..2_000, 0..n).prop_map(|(at_ms, len_ms, node)| Op::Partition {
                at_ms,
                len_ms,
                node
            }),
            (
                (0u64..5_000, 1u64..2_000, 0..n),
                (0u8..101, 0u8..101, 0u8..101)
            )
                .prop_map(
                    |((at_ms, len_ms, node), (drop_pct, dup_pct, reorder_pct))| Op::LinkFault {
                        at_ms,
                        len_ms,
                        node,
                        drop_pct,
                        dup_pct,
                        reorder_pct,
                    }
                ),
            (0u64..5_000, 1u64..2_000, 0..n).prop_map(|(at_ms, len_ms, node)| Op::Sever {
                at_ms,
                len_ms,
                node
            }),
            (0u64..5_000, 1u64..2_000, 0..n, 1u64..500).prop_map(
                |(at_ms, len_ms, node, extra_ms)| Op::Slowdown {
                    at_ms,
                    len_ms,
                    node,
                    extra_ms,
                }
            ),
            ((0u64..5_000, 2u64..2_000, 0..n), (1u8..101, any::<bool>())).prop_map(
                |((at_ms, len_ms, node), (pct, partition))| Op::Stacked {
                    at_ms,
                    len_ms,
                    node,
                    pct,
                    partition,
                }
            ),
        ]
    }

    fn apply(sim: &mut Simulation<Echoes>, ops: &[Op], n: usize) {
        for op in ops {
            match *op {
                Op::Request { at_ms, node, value } => {
                    sim.schedule_request(SimTime::from_millis(at_ms), NodeId::new(node), value);
                }
                Op::Crash { at_ms, node } => {
                    sim.schedule_crash(SimTime::from_millis(at_ms), NodeId::new(node));
                }
                Op::Restart { at_ms, node } => {
                    sim.schedule_restart(SimTime::from_millis(at_ms), NodeId::new(node));
                }
                Op::Partition {
                    at_ms,
                    len_ms,
                    node,
                } => {
                    sim.schedule_partition(
                        SimTime::from_millis(at_ms),
                        SimTime::from_millis(at_ms + len_ms),
                        [NodeId::new(node)],
                    );
                }
                Op::LinkFault {
                    at_ms,
                    len_ms,
                    node,
                    drop_pct,
                    dup_pct,
                    reorder_pct,
                } => {
                    sim.schedule_link_fault(
                        SimTime::from_millis(at_ms),
                        SimTime::from_millis(at_ms + len_ms),
                        LinkFault::between([NodeId::new(node)], NodeId::all(n))
                            .with_drop(f64::from(drop_pct) / 100.0)
                            .with_duplicate(f64::from(dup_pct) / 100.0)
                            .with_reorder(
                                f64::from(reorder_pct) / 100.0,
                                SimDuration::from_millis(50),
                            ),
                    );
                }
                Op::Sever {
                    at_ms,
                    len_ms,
                    node,
                } => {
                    sim.schedule_link_fault(
                        SimTime::from_millis(at_ms),
                        SimTime::from_millis(at_ms + len_ms),
                        LinkFault::sever(
                            NodeId::all(n).filter(|id| *id != NodeId::new(node)),
                            [NodeId::new(node)],
                        ),
                    );
                }
                Op::Slowdown {
                    at_ms,
                    len_ms,
                    node,
                    extra_ms,
                } => {
                    sim.schedule_slowdown(
                        SimTime::from_millis(at_ms),
                        SimTime::from_millis(at_ms + len_ms),
                        NodeId::new(node),
                        SimDuration::from_millis(extra_ms),
                    );
                }
                Op::Stacked {
                    at_ms,
                    len_ms,
                    node,
                    pct,
                    partition,
                } => {
                    let p = f64::from(pct) / 100.0;
                    sim.schedule_link_fault(
                        SimTime::from_millis(at_ms),
                        SimTime::from_millis(at_ms + len_ms),
                        LinkFault::all()
                            .with_drop(p)
                            .with_duplicate(p)
                            .with_reorder(p, SimDuration::from_millis(50)),
                    );
                    let cut_at = SimTime::from_millis(at_ms + len_ms / 4);
                    let cut_end = SimTime::from_millis(at_ms + len_ms * 3 / 4);
                    let victim = NodeId::new(node);
                    if partition {
                        sim.schedule_partition(cut_at, cut_end, [victim]);
                    } else {
                        sim.schedule_link_fault(
                            cut_at,
                            cut_end,
                            LinkFault::sever(NodeId::all(n).filter(|id| *id != victim), [victim]),
                        );
                    }
                }
            }
        }
    }

    /// Runs the 64 schedules of a fixed generator seed and hashes every
    /// commit plus the final counters of each run.
    fn fixed_schedules_digest() -> String {
        let mut rng = TestRng::new(0x5CED_0001);
        let schedules = (
            proptest::collection::vec(op_strategy(4), 0..40),
            0u64..1_000,
        );
        let mut hasher = stabl_types::Sha256::new();
        for _ in 0..64 {
            let (ops, seed) = schedules.sample(&mut rng);
            let mut sim = Simulation::<Echoes>::new(4, seed, ());
            apply(&mut sim, &ops, 4);
            // A steady broadcast every 50 ms, round-robin over the
            // nodes, so every rule window sees traffic.
            for tick in 0..200u64 {
                sim.schedule_request(
                    SimTime::from_millis(tick * 50),
                    NodeId::new((tick % 4) as u32),
                    tick,
                );
            }
            sim.run_until(SimTime::from_secs(10));
            for c in sim.commits() {
                hasher.update(&c.time.as_micros().to_le_bytes());
                hasher.update(&c.node.as_u32().to_le_bytes());
                hasher.update(&c.commit.to_le_bytes());
            }
            hasher.update(format!("{:?}", sim.stats()).as_bytes());
        }
        hasher.finalize().to_string()
    }

    /// The send path's reference: partitions, severs, probabilistic
    /// rules and slowdowns stacked in 64 fixed schedules must keep
    /// every commit instant and counter. A refactor of the fault path
    /// leaves this constant alone.
    #[test]
    fn fixed_schedules_match_the_pinned_digest() {
        assert_eq!(
            fixed_schedules_digest(),
            "c1cf5424926fa002686187b988e7f6ae91352ba9165a36bbb9479f1d453a23ae"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary schedules keep the kernel's accounting balanced and
        /// identical schedules replay identically.
        #[test]
        fn kernel_invariants_under_arbitrary_schedules(
            ops in proptest::collection::vec(op_strategy(4), 0..40),
            seed in 0u64..1_000,
        ) {
            let run = |ops: &[Op]| {
                let mut sim = Simulation::<Echoes>::new(4, seed, ());
                apply(&mut sim, ops, 4);
                sim.run_until(SimTime::from_secs(10));
                let stats = sim.stats();
                // Accounting: every sent message (plus every duplicate
                // copy injected by link faults) is delivered or dropped.
                prop_assert_eq!(
                    stats.messages_sent + stats.messages_duplicated_link,
                    stats.messages_delivered
                        + stats.messages_dropped_dead
                        + stats.messages_dropped_partition
                        + stats.messages_dropped_link
                );
                // Commits only ever come from deliveries.
                prop_assert!(sim.commits().len() as u64 <= stats.messages_delivered);
                // Clock finishes at the horizon and the queue drained to it.
                prop_assert_eq!(sim.now(), SimTime::from_secs(10));
                Ok(sim
                    .commits()
                    .iter()
                    .map(|c| (c.time.as_micros(), c.node.as_u32(), c.commit))
                    .collect::<Vec<_>>())
            };
            let a = run(&ops)?;
            let b = run(&ops)?;
            prop_assert_eq!(a, b, "identical schedules must replay identically");
        }
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;

    /// A ping protocol exercising timers, broadcast, crash/restart and
    /// partitions: every node pings all peers each 100 ms and commits the
    /// sequence number of every ping it receives.
    #[derive(Debug)]
    struct Pinger {
        seq: u64,
        received: u64,
        restarted: bool,
    }

    #[derive(Clone, Debug)]
    enum PingMsg {
        Ping(u64),
    }

    impl Protocol for Pinger {
        type Msg = PingMsg;
        type Request = u64;
        type Commit = (u32, u64);
        type Timer = ();
        type Config = ();

        fn new(_: NodeId, _: usize, _: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            ctx.set_timer(SimDuration::from_millis(100), ());
            Pinger {
                seq: 0,
                received: 0,
                restarted: false,
            }
        }

        fn on_message(&mut self, from: NodeId, PingMsg::Ping(s): PingMsg, ctx: &mut Ctx<'_, Self>) {
            self.received += 1;
            ctx.commit((from.as_u32(), s));
        }

        fn on_timer(&mut self, _: (), ctx: &mut Ctx<'_, Self>) {
            self.seq += 1;
            ctx.broadcast(PingMsg::Ping(self.seq));
            ctx.set_timer(SimDuration::from_millis(100), ());
        }

        fn on_request(&mut self, seq: u64, ctx: &mut Ctx<'_, Self>) {
            ctx.broadcast(PingMsg::Ping(seq));
        }

        fn on_restart(&mut self, ctx: &mut Ctx<'_, Self>) {
            self.restarted = true;
            ctx.set_timer(SimDuration::from_millis(100), ());
        }
    }

    fn pinger_sim(n: usize, seed: u64) -> Simulation<Pinger> {
        Simulation::new(n, seed, ())
    }

    #[test]
    fn timers_drive_periodic_broadcast() {
        let mut sim = pinger_sim(3, 1);
        sim.run_until(SimTime::from_secs(1));
        // Each node fires ~10 times, each ping reaches 2 peers.
        let commits = sim.commits().len() as u64;
        assert!((50..=70).contains(&commits), "commits = {commits}");
        assert!(sim.stats().timers_fired >= 30);
    }

    #[test]
    fn cancelled_timers_never_fire_and_count_as_stale() {
        /// Arms a decoy and a keeper timer at every fire, cancelling the
        /// decoy immediately; only keeper tokens may ever be delivered.
        struct Canceller;
        impl Protocol for Canceller {
            type Msg = u64;
            type Request = u64;
            type Commit = u64;
            type Timer = u8;
            type Config = ();
            fn new(_: NodeId, _: usize, _: &(), ctx: &mut Ctx<'_, Self>) -> Self {
                let decoy = ctx.set_timer(SimDuration::from_millis(50), 0);
                ctx.set_timer(SimDuration::from_millis(100), 1);
                ctx.cancel_timer(decoy);
                Canceller
            }
            fn on_message(&mut self, _: NodeId, _: u64, _: &mut Ctx<'_, Self>) {}
            fn on_timer(&mut self, token: u8, ctx: &mut Ctx<'_, Self>) {
                assert_eq!(token, 1, "a cancelled timer fired");
                ctx.commit(u64::from(token));
                let decoy = ctx.set_timer(SimDuration::from_millis(50), 0);
                ctx.set_timer(SimDuration::from_millis(100), 1);
                ctx.cancel_timer(decoy);
            }
            fn on_request(&mut self, _: u64, _: &mut Ctx<'_, Self>) {}
            fn on_restart(&mut self, _: &mut Ctx<'_, Self>) {}
        }

        let mut sim = Simulation::<Canceller>::new(3, 9, ());
        sim.run_until(SimTime::from_secs(1));
        let stats = sim.stats();
        // One decoy is armed and cancelled per keeper fire (plus the one
        // from `new`, minus the final decoy whose slot lies past the
        // horizon), so stale resolutions track fired ones exactly.
        assert!(stats.timers_fired >= 27, "fired = {}", stats.timers_fired);
        assert_eq!(stats.timers_stale, stats.timers_fired);
        assert_eq!(sim.commits().len() as u64, stats.timers_fired);
    }

    #[test]
    fn crash_stops_timers_and_receiving() {
        let mut sim = pinger_sim(3, 2);
        sim.schedule_crash(SimTime::from_millis(350), NodeId::new(2));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.status(NodeId::new(2)), NodeStatus::Crashed);
        // No commits from node2 after the crash.
        let late = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(2) && c.time > SimTime::from_millis(360))
            .count();
        assert_eq!(late, 0);
        assert!(sim.stats().messages_dropped_dead > 0);
        assert!(
            sim.stats().timers_stale > 0,
            "crashed node's timer is stale"
        );
    }

    #[test]
    fn restart_invokes_on_restart_and_resumes() {
        let mut sim = pinger_sim(3, 3);
        sim.schedule_crash(SimTime::from_millis(300), NodeId::new(1));
        sim.schedule_restart(SimTime::from_millis(600), NodeId::new(1));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.status(NodeId::new(1)), NodeStatus::Running);
        assert!(sim.node(NodeId::new(1)).restarted);
        // It pings again after the restart.
        let late = sim
            .commits()
            .iter()
            .filter(|c| c.commit.0 == 1 && c.time > SimTime::from_millis(700))
            .count();
        assert!(late > 0, "restarted node resumed pinging");
    }

    #[test]
    fn restart_of_running_node_is_noop() {
        let mut sim = pinger_sim(2, 4);
        sim.schedule_restart(SimTime::from_millis(100), NodeId::new(0));
        sim.run_until(SimTime::from_millis(200));
        assert!(!sim.node(NodeId::new(0)).restarted);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut sim = pinger_sim(4, 5);
        sim.schedule_partition(
            SimTime::from_millis(200),
            SimTime::from_millis(700),
            [NodeId::new(3)],
        );
        sim.run_until(SimTime::from_secs(1));
        // During the partition node3 receives nothing.
        let during = sim
            .commits()
            .iter()
            .filter(|c| {
                c.node == NodeId::new(3)
                    && c.time > SimTime::from_millis(220)
                    && c.time < SimTime::from_millis(700)
            })
            .count();
        assert_eq!(during, 0);
        // After healing it receives pings again.
        let after = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(3) && c.time > SimTime::from_millis(720))
            .count();
        assert!(after > 0);
        assert!(sim.stats().messages_dropped_partition > 0);
        assert_eq!(sim.network().active_rules(), 0, "rule removed after heal");
    }

    #[test]
    fn requests_to_dead_nodes_are_dropped() {
        let mut sim = pinger_sim(2, 6);
        sim.schedule_crash(SimTime::from_millis(10), NodeId::new(0));
        sim.schedule_request(SimTime::from_millis(20), NodeId::new(0), 99);
        sim.schedule_request(SimTime::from_millis(20), NodeId::new(1), 100);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.stats().requests_dropped, 1);
        assert_eq!(sim.stats().requests_delivered, 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut sim = pinger_sim(5, seed);
            sim.schedule_crash(SimTime::from_millis(300), NodeId::new(4));
            sim.schedule_restart(SimTime::from_millis(700), NodeId::new(4));
            sim.run_until(SimTime::from_secs(2));
            sim.commits()
                .iter()
                .map(|c| (c.time.as_micros(), c.node.as_u32(), c.commit))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds give different schedules");
    }

    #[test]
    fn fifo_links_preserve_per_link_order() {
        // With FIFO links, commits of one sender's pings at one receiver
        // must be in sequence order.
        let mut sim = pinger_sim(2, 7);
        sim.run_until(SimTime::from_secs(3));
        let seqs: Vec<u64> = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0) && c.commit.0 == 1)
            .map(|c| c.commit.1)
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        assert!(!seqs.is_empty());
    }

    #[test]
    fn slowdown_delays_a_nodes_messages() {
        let lagged = |slow: bool| {
            let mut sim = pinger_sim(2, 12);
            if slow {
                sim.schedule_slowdown(
                    SimTime::from_millis(0),
                    SimTime::from_secs(5),
                    NodeId::new(1),
                    SimDuration::from_millis(300),
                );
            }
            sim.run_until(SimTime::from_secs(2));
            // First ping from node1 observed at node0.
            sim.commits()
                .iter()
                .find(|c| c.node == NodeId::new(0) && c.commit.0 == 1)
                .map(|c| c.time)
                .expect("ping observed")
        };
        let fast = lagged(false);
        let slow = lagged(true);
        assert!(
            slow >= fast + SimDuration::from_millis(290),
            "slowdown must delay outbound messages: {fast} vs {slow}"
        );
    }

    #[test]
    fn slowdown_expires() {
        let mut sim = pinger_sim(2, 13);
        sim.schedule_slowdown(
            SimTime::from_millis(0),
            SimTime::from_millis(500),
            NodeId::new(1),
            SimDuration::from_millis(400),
        );
        sim.run_until(SimTime::from_secs(3));
        // After expiry, node1's pings arrive with plain link latency
        // again: inter-arrival gaps return to the 100 ms timer period.
        let times: Vec<SimTime> = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0) && c.commit.0 == 1)
            .map(|c| c.time)
            .collect();
        let late_gaps: Vec<u64> = times
            .windows(2)
            .filter(|w| w[0] > SimTime::from_secs(1))
            .map(|w| (w[1] - w[0]).as_millis())
            .collect();
        assert!(!late_gaps.is_empty());
        assert!(
            late_gaps.iter().all(|g| (80..=120).contains(g)),
            "gaps after expiry: {late_gaps:?}"
        );
    }

    #[test]
    fn lossy_link_fault_drops_messages() {
        let mut sim = pinger_sim(3, 21);
        sim.schedule_link_fault(
            SimTime::from_millis(0),
            SimTime::from_secs(2),
            LinkFault::all().with_drop(0.5),
        );
        sim.run_until(SimTime::from_secs(2));
        let stats = sim.stats();
        assert!(stats.messages_dropped_link > 0, "loss must bite");
        assert!(stats.messages_delivered > 0, "but not everything dies");
    }

    #[test]
    fn asymmetric_partition_kills_one_direction_only() {
        let mut sim = pinger_sim(2, 22);
        // node1 -> node0 dies; node0 -> node1 stays up.
        sim.schedule_link_fault(
            SimTime::from_millis(0),
            SimTime::from_secs(2),
            LinkFault::sever([NodeId::new(1)], [NodeId::new(0)]),
        );
        sim.run_until(SimTime::from_secs(2));
        let from1 = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0))
            .count();
        let from0 = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(1))
            .count();
        assert_eq!(from1, 0, "nothing flows node1 -> node0");
        assert!(from0 > 0, "node0 -> node1 unaffected");
    }

    #[test]
    fn link_fault_lifts_at_end_of_window() {
        let mut sim = pinger_sim(2, 23);
        sim.schedule_link_fault(
            SimTime::from_millis(0),
            SimTime::from_secs(1),
            LinkFault::sever([NodeId::new(1)], [NodeId::new(0)]),
        );
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.network().active_rules(), 0, "fault removed");
        let late = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0) && c.time > SimTime::from_millis(1200))
            .count();
        assert!(late > 0, "traffic resumes after the window");
    }

    #[test]
    fn duplicating_fault_delivers_extra_copies() {
        let mut sim = pinger_sim(2, 24);
        sim.schedule_link_fault(
            SimTime::from_millis(0),
            SimTime::from_secs(2),
            LinkFault::all().with_duplicate(1.0),
        );
        sim.run_until(SimTime::from_secs(2));
        let stats = sim.stats();
        assert!(stats.messages_duplicated_link > 0);
        assert!(
            stats.messages_delivered > stats.messages_sent,
            "copies land"
        );
    }

    #[test]
    fn reordering_fault_breaks_fifo_order() {
        // With a heavy reorder fault the per-link FIFO guarantee must
        // break: some ping sequence numbers arrive out of order.
        let mut sim = pinger_sim(2, 25);
        sim.schedule_link_fault(
            SimTime::from_millis(0),
            SimTime::from_secs(5),
            LinkFault::all().with_reorder(0.5, SimDuration::from_millis(400)),
        );
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.stats().messages_reordered_link > 0);
        let seqs: Vec<u64> = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0) && c.commit.0 == 1)
            .map(|c| c.commit.1)
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_ne!(seqs, sorted, "reordering must be observable");
    }

    #[test]
    fn link_faults_are_deterministic() {
        let run = |seed| {
            let mut sim = pinger_sim(4, seed);
            sim.schedule_link_fault(
                SimTime::from_millis(100),
                SimTime::from_secs(2),
                LinkFault::all()
                    .with_drop(0.2)
                    .with_duplicate(0.1)
                    .with_reorder(0.3, SimDuration::from_millis(80)),
            );
            sim.run_until(SimTime::from_secs(2));
            sim.commits()
                .iter()
                .map(|c| (c.time.as_micros(), c.node.as_u32(), c.commit))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = pinger_sim(1, 8); // single node: broadcasts go nowhere
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn events_never_fire_before_schedule_time() {
        let mut sim = pinger_sim(3, 9);
        sim.run_until(SimTime::from_millis(150));
        let early = sim
            .commits()
            .iter()
            .filter(|c| c.time < SimTime::from_millis(100))
            .count();
        assert_eq!(early, 0, "first pings need one timer period plus latency");
    }
}
