//! The typed observability layer of the kernel: structured simulation
//! events, capture levels and the bounded event recorder.
//!
//! This is the kernel's one trace stream, and it answers "*why* did the
//! run degrade?". Free text a node prints through [`Ctx::log`] is just
//! one more event kind in it ([`SimEvent::Log`], recorded at
//! [`CaptureLevel::Full`]). Every interesting kernel transition —
//! message send/deliver/drop (with its cause), timer fire/stale, node
//! crash/restart/panic, fault activation, client submission and commit
//! — is recorded as a [`SimEvent`] with its simulated timestamp, cheap
//! enough to aggregate over millions of events and structured enough to
//! export as a Chrome-trace/Perfetto timeline or a JSON-Lines dump.
//!
//! Recording is **deterministic-neutral**: the recorder only observes,
//! it never draws randomness, perturbs event ordering or feeds back into
//! protocol state, so a run with [`CaptureLevel::Full`] produces results
//! bit-identical to one with [`CaptureLevel::Off`].
//!
//! [`Ctx::log`]: crate::Ctx::log

use std::collections::VecDeque;

use crate::{NodeId, SimTime};

/// How much the kernel records about a run.
///
/// Levels are ordered: each level captures strictly more than the one
/// before it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CaptureLevel {
    /// Record nothing (the near-zero-cost default for campaigns).
    #[default]
    Off,
    /// Maintain per-event-kind counters only.
    Counters,
    /// Counters plus the event stream, minus the per-message firehose
    /// (sends, deliveries, drops) and log lines.
    Events,
    /// Everything, including one event per message hop and per
    /// [`Ctx::log`] line.
    ///
    /// [`Ctx::log`]: crate::Ctx::log
    Full,
}

impl CaptureLevel {
    /// Every level, in ascending capture order.
    pub const ALL: [CaptureLevel; 4] = [
        CaptureLevel::Off,
        CaptureLevel::Counters,
        CaptureLevel::Events,
        CaptureLevel::Full,
    ];

    /// A short stable name (used by exporters and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            CaptureLevel::Off => "off",
            CaptureLevel::Counters => "counters",
            CaptureLevel::Events => "events",
            CaptureLevel::Full => "full",
        }
    }
}

/// Why a message died in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// A partition rule blocked the link.
    Partition,
    /// A probabilistic link fault (or asymmetric sever) ate the packet.
    LinkFault,
    /// The destination node was crashed or panicked.
    DeadNode,
}

impl DropCause {
    /// A short stable name.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::Partition => "partition",
            DropCause::LinkFault => "link_fault",
            DropCause::DeadNode => "dead_node",
        }
    }
}

/// Which fault class an activation/clear event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A symmetric partition rule.
    Partition,
    /// A message-level link fault.
    LinkFault,
    /// A per-node send slowdown.
    Slowdown,
}

impl FaultKind {
    /// A short stable name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Partition => "partition",
            FaultKind::LinkFault => "link_fault",
            FaultKind::Slowdown => "slowdown",
        }
    }
}

/// One structured kernel observation.
///
/// Node-lifecycle, timer, fault, client and commit events are recorded
/// at [`CaptureLevel::Events`]; the per-message and log events only at
/// [`CaptureLevel::Full`] (they dominate the volume).
#[derive(Clone, Debug, PartialEq)]
pub enum SimEvent {
    /// The harness crashed a running node.
    NodeCrashed {
        /// The crashed node.
        node: NodeId,
    },
    /// A crashed node was restarted.
    NodeRestarted {
        /// The restarted node.
        node: NodeId,
    },
    /// A node aborted fatally through [`Ctx::panic_node`].
    ///
    /// [`Ctx::panic_node`]: crate::Ctx::panic_node
    NodePanicked {
        /// The aborted node.
        node: NodeId,
    },
    /// A protocol handed a message to the network.
    MessageSent {
        /// The sender.
        from: NodeId,
        /// The destination.
        to: NodeId,
    },
    /// A message reached a running node.
    MessageDelivered {
        /// The sender.
        from: NodeId,
        /// The destination.
        to: NodeId,
    },
    /// A message died in flight.
    MessageDropped {
        /// The sender.
        from: NodeId,
        /// The destination it never reached.
        to: NodeId,
        /// Why it died.
        cause: DropCause,
    },
    /// An armed timer fired and was dispatched.
    TimerFired {
        /// The node whose timer fired.
        node: NodeId,
    },
    /// A timer was skipped (cancelled, or invalidated by crash/restart).
    TimerStale {
        /// The node whose timer went stale.
        node: NodeId,
    },
    /// A client request reached a running node.
    RequestDelivered {
        /// The receiving node.
        node: NodeId,
    },
    /// A client request hit a dead node and was lost.
    RequestDropped {
        /// The dead target.
        node: NodeId,
    },
    /// A scheduled fault engaged.
    FaultActivated {
        /// The fault class.
        kind: FaultKind,
    },
    /// A scheduled fault was lifted.
    FaultCleared {
        /// The fault class.
        kind: FaultKind,
    },
    /// A client submitted a transaction to a node (harness-recorded).
    ClientSubmitted {
        /// The submitting client's index.
        client: u64,
        /// The node it contacted.
        node: NodeId,
    },
    /// A client resubmitted after a timeout (harness-recorded).
    ClientRetried {
        /// The retrying client's index.
        client: u64,
        /// The alternate node it contacted.
        node: NodeId,
    },
    /// A client exhausted its retries and gave up (harness-recorded).
    ClientGaveUp {
        /// The defeated client's index.
        client: u64,
    },
    /// A node reported a commit.
    Committed {
        /// The committing node.
        node: NodeId,
    },
    /// A protocol marked entering a consensus phase via [`Ctx::span`].
    ///
    /// [`Ctx::span`]: crate::Ctx::span
    Phase {
        /// The node entering the phase.
        node: NodeId,
        /// The phase label (e.g. `"sortition"`, `"snowball_poll"`).
        phase: &'static str,
    },
    /// A [`Ctx::log`] line (only stored at [`CaptureLevel::Full`]).
    ///
    /// [`Ctx::log`]: crate::Ctx::log
    Log {
        /// The logging node.
        node: NodeId,
        /// The logged text.
        line: String,
    },
    /// A protocol sampled a named per-node metric via [`Ctx::gauge`]
    /// (e.g. mempool depth, current round, open connections).
    ///
    /// [`Ctx::gauge`]: crate::Ctx::gauge
    Gauge {
        /// The node reporting the sample.
        node: NodeId,
        /// The metric name (a stable static label, e.g. `"mempool_depth"`).
        metric: &'static str,
        /// The sampled value.
        value: u64,
    },
}

impl SimEvent {
    /// A short stable kind name (exporters key on it).
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::NodeCrashed { .. } => "node_crashed",
            SimEvent::NodeRestarted { .. } => "node_restarted",
            SimEvent::NodePanicked { .. } => "node_panicked",
            SimEvent::MessageSent { .. } => "message_sent",
            SimEvent::MessageDelivered { .. } => "message_delivered",
            SimEvent::MessageDropped { .. } => "message_dropped",
            SimEvent::TimerFired { .. } => "timer_fired",
            SimEvent::TimerStale { .. } => "timer_stale",
            SimEvent::RequestDelivered { .. } => "request_delivered",
            SimEvent::RequestDropped { .. } => "request_dropped",
            SimEvent::FaultActivated { .. } => "fault_activated",
            SimEvent::FaultCleared { .. } => "fault_cleared",
            SimEvent::ClientSubmitted { .. } => "client_submitted",
            SimEvent::ClientRetried { .. } => "client_retried",
            SimEvent::ClientGaveUp { .. } => "client_gave_up",
            SimEvent::Committed { .. } => "committed",
            SimEvent::Phase { .. } => "phase",
            SimEvent::Log { .. } => "log",
            SimEvent::Gauge { .. } => "gauge",
        }
    }

    /// The node an exporter should attribute this event to, if any.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            SimEvent::NodeCrashed { node }
            | SimEvent::NodeRestarted { node }
            | SimEvent::NodePanicked { node }
            | SimEvent::TimerFired { node }
            | SimEvent::TimerStale { node }
            | SimEvent::RequestDelivered { node }
            | SimEvent::RequestDropped { node }
            | SimEvent::Committed { node }
            | SimEvent::Phase { node, .. }
            | SimEvent::Log { node, .. }
            | SimEvent::Gauge { node, .. } => Some(*node),
            SimEvent::MessageSent { to, .. }
            | SimEvent::MessageDelivered { to, .. }
            | SimEvent::MessageDropped { to, .. } => Some(*to),
            SimEvent::ClientSubmitted { node, .. } | SimEvent::ClientRetried { node, .. } => {
                Some(*node)
            }
            SimEvent::FaultActivated { .. }
            | SimEvent::FaultCleared { .. }
            | SimEvent::ClientGaveUp { .. } => None,
        }
    }

    /// `true` for the high-volume events only stored at
    /// [`CaptureLevel::Full`]: per-message hops and log lines.
    pub fn is_bulky(&self) -> bool {
        matches!(
            self,
            SimEvent::MessageSent { .. }
                | SimEvent::MessageDelivered { .. }
                | SimEvent::MessageDropped { .. }
                | SimEvent::Log { .. }
        )
    }
}

/// A [`SimEvent`] with its simulated timestamp and a recorder sequence
/// number (the deterministic tie-break for equal timestamps).
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    /// When the event happened on the simulated clock.
    pub time: SimTime,
    /// Recorder-assigned sequence number (insertion order).
    pub seq: u64,
    /// The structured observation.
    pub event: SimEvent,
}

/// Per-kind event counts, maintained from [`CaptureLevel::Counters`] up.
///
/// Unlike [`SimStats`] — which is always on and part of the
/// deterministic run artefact — these counters only exist when capture
/// is enabled and also cover harness-level client events and phase
/// marks.
///
/// [`SimStats`]: crate::SimStats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EventCounters {
    /// `NodeCrashed` events.
    pub node_crashes: u64,
    /// `NodeRestarted` events.
    pub node_restarts: u64,
    /// `NodePanicked` events.
    pub node_panics: u64,
    /// `MessageSent` events.
    pub messages_sent: u64,
    /// `MessageDelivered` events.
    pub messages_delivered: u64,
    /// `MessageDropped` events (all causes).
    pub messages_dropped: u64,
    /// `TimerFired` events.
    pub timers_fired: u64,
    /// `TimerStale` events.
    pub timers_stale: u64,
    /// `RequestDelivered` events.
    pub requests_delivered: u64,
    /// `RequestDropped` events.
    pub requests_dropped: u64,
    /// `FaultActivated` events.
    pub faults_activated: u64,
    /// `FaultCleared` events.
    pub faults_cleared: u64,
    /// `ClientSubmitted` events.
    pub client_submits: u64,
    /// `ClientRetried` events.
    pub client_retries: u64,
    /// `ClientGaveUp` events.
    pub client_give_ups: u64,
    /// `Committed` events.
    pub commits: u64,
    /// `Phase` marks from [`Ctx::span`].
    ///
    /// [`Ctx::span`]: crate::Ctx::span
    pub phase_marks: u64,
    /// `Log` events.
    pub log_lines: u64,
    /// `Gauge` samples from [`Ctx::gauge`].
    ///
    /// [`Ctx::gauge`]: crate::Ctx::gauge
    pub gauge_samples: u64,
}

impl EventCounters {
    fn count(&mut self, event: &SimEvent) {
        let slot = match event {
            SimEvent::NodeCrashed { .. } => &mut self.node_crashes,
            SimEvent::NodeRestarted { .. } => &mut self.node_restarts,
            SimEvent::NodePanicked { .. } => &mut self.node_panics,
            SimEvent::MessageSent { .. } => &mut self.messages_sent,
            SimEvent::MessageDelivered { .. } => &mut self.messages_delivered,
            SimEvent::MessageDropped { .. } => &mut self.messages_dropped,
            SimEvent::TimerFired { .. } => &mut self.timers_fired,
            SimEvent::TimerStale { .. } => &mut self.timers_stale,
            SimEvent::RequestDelivered { .. } => &mut self.requests_delivered,
            SimEvent::RequestDropped { .. } => &mut self.requests_dropped,
            SimEvent::FaultActivated { .. } => &mut self.faults_activated,
            SimEvent::FaultCleared { .. } => &mut self.faults_cleared,
            SimEvent::ClientSubmitted { .. } => &mut self.client_submits,
            SimEvent::ClientRetried { .. } => &mut self.client_retries,
            SimEvent::ClientGaveUp { .. } => &mut self.client_give_ups,
            SimEvent::Committed { .. } => &mut self.commits,
            SimEvent::Phase { .. } => &mut self.phase_marks,
            SimEvent::Log { .. } => &mut self.log_lines,
            SimEvent::Gauge { .. } => &mut self.gauge_samples,
        };
        *slot += 1;
    }

    /// Total events counted.
    pub fn total(&self) -> u64 {
        self.node_crashes
            + self.node_restarts
            + self.node_panics
            + self.messages_sent
            + self.messages_delivered
            + self.messages_dropped
            + self.timers_fired
            + self.timers_stale
            + self.requests_delivered
            + self.requests_dropped
            + self.faults_activated
            + self.faults_cleared
            + self.client_submits
            + self.client_retries
            + self.client_give_ups
            + self.commits
            + self.phase_marks
            + self.log_lines
            + self.gauge_samples
    }
}

/// Default bound on the stored event stream (events beyond it evict the
/// oldest, ring-buffer style).
pub const DEFAULT_EVENT_CAP: usize = 1 << 18;

/// The bounded, capture-levelled event sink the kernel records into.
///
/// At [`CaptureLevel::Off`] recording is a single branch; at
/// [`CaptureLevel::Counters`] only [`EventCounters`] update; from
/// [`CaptureLevel::Events`] up, events are stored in a bounded ring —
/// when the cap is hit the *oldest* event is evicted and
/// [`EventRecorder::dropped_events`] counts the loss, so a long chaos
/// run keeps its most recent history instead of ballooning memory.
#[derive(Clone, Debug)]
pub struct EventRecorder {
    level: CaptureLevel,
    cap: usize,
    next_seq: u64,
    events: VecDeque<TimedEvent>,
    dropped: u64,
    counters: EventCounters,
}

impl EventRecorder {
    /// A recorder at `level` storing at most `cap` events.
    pub fn new(level: CaptureLevel, cap: usize) -> EventRecorder {
        EventRecorder {
            level,
            cap: cap.max(1),
            next_seq: 0,
            events: VecDeque::new(),
            dropped: 0,
            counters: EventCounters::default(),
        }
    }

    /// The capture level this recorder runs at.
    #[inline]
    pub fn level(&self) -> CaptureLevel {
        self.level
    }

    /// `true` unless capture is [`CaptureLevel::Off`].
    #[inline]
    pub fn is_active(&self) -> bool {
        self.level != CaptureLevel::Off
    }

    /// Records one event at `time`. A no-op at [`CaptureLevel::Off`];
    /// counter-only at [`CaptureLevel::Counters`]; bulky events (see
    /// [`SimEvent::is_bulky`]) are stored only at [`CaptureLevel::Full`].
    #[inline]
    pub fn record(&mut self, time: SimTime, event: SimEvent) {
        if self.level == CaptureLevel::Off {
            return;
        }
        self.counters.count(&event);
        if self.level == CaptureLevel::Counters
            || (self.level == CaptureLevel::Events && event.is_bulky())
        {
            return;
        }
        if self.events.len() >= self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push_back(TimedEvent { time, seq, event });
    }

    /// The stored events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> + '_ {
        self.events.iter()
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drains the stored events, oldest first.
    pub fn take_events(&mut self) -> Vec<TimedEvent> {
        self.events.drain(..).collect()
    }

    /// Events evicted from the ring after the cap was reached.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// The per-kind counters.
    pub fn counters(&self) -> EventCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(node: u32) -> SimEvent {
        SimEvent::Committed {
            node: NodeId::new(node),
        }
    }

    #[test]
    fn levels_are_ordered() {
        assert!(CaptureLevel::Off < CaptureLevel::Counters);
        assert!(CaptureLevel::Counters < CaptureLevel::Events);
        assert!(CaptureLevel::Events < CaptureLevel::Full);
        assert_eq!(CaptureLevel::default(), CaptureLevel::Off);
    }

    #[test]
    fn off_records_nothing() {
        let mut rec = EventRecorder::new(CaptureLevel::Off, 16);
        rec.record(SimTime::ZERO, commit(0));
        assert!(rec.is_empty());
        assert_eq!(rec.counters().total(), 0);
        assert!(!rec.is_active());
    }

    #[test]
    fn counters_level_counts_without_storing() {
        let mut rec = EventRecorder::new(CaptureLevel::Counters, 16);
        rec.record(SimTime::ZERO, commit(0));
        rec.record(
            SimTime::ZERO,
            SimEvent::TimerFired {
                node: NodeId::new(1),
            },
        );
        assert!(rec.is_empty());
        assert_eq!(rec.counters().commits, 1);
        assert_eq!(rec.counters().timers_fired, 1);
        assert_eq!(rec.counters().total(), 2);
    }

    #[test]
    fn events_level_skips_bulky_kinds() {
        let mut rec = EventRecorder::new(CaptureLevel::Events, 16);
        rec.record(
            SimTime::ZERO,
            SimEvent::MessageSent {
                from: NodeId::new(0),
                to: NodeId::new(1),
            },
        );
        rec.record(SimTime::ZERO, commit(1));
        assert_eq!(rec.len(), 1, "message hop counted but not stored");
        assert_eq!(rec.counters().messages_sent, 1);
        assert_eq!(rec.counters().commits, 1);

        let mut full = EventRecorder::new(CaptureLevel::Full, 16);
        full.record(
            SimTime::ZERO,
            SimEvent::MessageSent {
                from: NodeId::new(0),
                to: NodeId::new(1),
            },
        );
        assert_eq!(full.len(), 1, "full capture stores the hop");
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut rec = EventRecorder::new(CaptureLevel::Events, 3);
        for i in 0..5u64 {
            rec.record(SimTime::from_millis(i), commit(i as u32));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped_events(), 2);
        let kept: Vec<u64> = rec.events().map(|e| e.time.as_micros() / 1_000).collect();
        assert_eq!(kept, vec![2, 3, 4], "the newest events survive");
        // Counters still saw everything.
        assert_eq!(rec.counters().commits, 5);
        // Sequence numbers stay globally increasing.
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn gauge_samples_store_and_count() {
        let mut rec = EventRecorder::new(CaptureLevel::Events, 16);
        rec.record(
            SimTime::from_millis(1),
            SimEvent::Gauge {
                node: NodeId::new(2),
                metric: "round",
                value: 4,
            },
        );
        assert_eq!(rec.len(), 1, "gauges are not bulky: stored at Events");
        assert_eq!(rec.counters().gauge_samples, 1);
        assert_eq!(rec.counters().total(), 1);
    }

    #[test]
    fn kind_names_are_distinct() {
        let events = [
            commit(0),
            SimEvent::NodeCrashed {
                node: NodeId::new(0),
            },
            SimEvent::Phase {
                node: NodeId::new(0),
                phase: "x",
            },
            SimEvent::FaultActivated {
                kind: FaultKind::Partition,
            },
            SimEvent::ClientGaveUp { client: 3 },
            SimEvent::Gauge {
                node: NodeId::new(0),
                metric: "mempool_depth",
                value: 7,
            },
        ];
        let kinds: std::collections::HashSet<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), events.len());
    }
}
