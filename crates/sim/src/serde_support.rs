//! JSON (de)serialisation of the kernel's observable run outputs.
//!
//! The bench harness memoises whole runs in an on-disk cache, so the
//! types a [`RunResult`] is made of — instants, node ids, panic records
//! and traffic counters — must round-trip through JSON losslessly. The
//! newtypes serialise as their raw integer payloads (microseconds,
//! dense node index); the plain records (`PanicRecord`, `SimStats`,
//! `EventCounters`) derive their field-name-keyed maps where they
//! are defined.
//!
//! [`RunResult`]: https://docs.rs/stabl/latest/stabl/struct.RunResult.html

use serde::{Content, DeError, Deserialize, Serialize};

use crate::{
    ByzantineBehavior, ByzantineSpec, LinkFault, NodeId, SimDuration, SimEvent, SimTime, TimedEvent,
};

impl Serialize for SimTime {
    fn to_content(&self) -> Content {
        Content::U64(self.as_micros())
    }
}

impl Deserialize for SimTime {
    fn from_content(content: &Content) -> Result<SimTime, DeError> {
        u64::from_content(content).map(SimTime::from_micros)
    }
}

impl Serialize for SimDuration {
    fn to_content(&self) -> Content {
        Content::U64(self.as_micros())
    }
}

impl Deserialize for SimDuration {
    fn from_content(content: &Content) -> Result<SimDuration, DeError> {
        u64::from_content(content).map(SimDuration::from_micros)
    }
}

impl Serialize for NodeId {
    fn to_content(&self) -> Content {
        Content::U64(u64::from(self.as_u32()))
    }
}

impl Deserialize for NodeId {
    fn from_content(content: &Content) -> Result<NodeId, DeError> {
        u32::from_content(content).map(NodeId::new)
    }
}

impl Serialize for SimEvent {
    /// One flat map per event, tagged by `kind`, so a JSON-Lines dump is
    /// self-describing: `{"kind":"message_dropped","from":0,"to":3,
    /// "cause":"partition"}`.
    fn to_content(&self) -> Content {
        let mut fields = vec![("kind".to_owned(), Content::Str(self.kind().to_owned()))];
        match self {
            SimEvent::NodeCrashed { node }
            | SimEvent::NodeRestarted { node }
            | SimEvent::NodePanicked { node }
            | SimEvent::TimerFired { node }
            | SimEvent::TimerStale { node }
            | SimEvent::RequestDelivered { node }
            | SimEvent::RequestDropped { node }
            | SimEvent::Committed { node } => {
                fields.push(("node".to_owned(), node.to_content()));
            }
            SimEvent::MessageSent { from, to } | SimEvent::MessageDelivered { from, to } => {
                fields.push(("from".to_owned(), from.to_content()));
                fields.push(("to".to_owned(), to.to_content()));
            }
            SimEvent::MessageDropped { from, to, cause } => {
                fields.push(("from".to_owned(), from.to_content()));
                fields.push(("to".to_owned(), to.to_content()));
                fields.push(("cause".to_owned(), Content::Str(cause.name().to_owned())));
            }
            SimEvent::FaultActivated { kind } | SimEvent::FaultCleared { kind } => {
                fields.push(("fault".to_owned(), Content::Str(kind.name().to_owned())));
            }
            SimEvent::ClientSubmitted { client, node }
            | SimEvent::ClientRetried { client, node } => {
                fields.push(("client".to_owned(), client.to_content()));
                fields.push(("node".to_owned(), node.to_content()));
            }
            SimEvent::ClientGaveUp { client } => {
                fields.push(("client".to_owned(), client.to_content()));
            }
            SimEvent::Phase { node, phase } => {
                fields.push(("node".to_owned(), node.to_content()));
                fields.push(("phase".to_owned(), Content::Str((*phase).to_owned())));
            }
            SimEvent::Log { node, line } => {
                fields.push(("node".to_owned(), node.to_content()));
                fields.push(("line".to_owned(), line.to_content()));
            }
            SimEvent::Gauge {
                node,
                metric,
                value,
            } => {
                fields.push(("node".to_owned(), node.to_content()));
                fields.push(("metric".to_owned(), Content::Str((*metric).to_owned())));
                fields.push(("value".to_owned(), value.to_content()));
            }
        }
        Content::Map(fields)
    }
}

impl Serialize for TimedEvent {
    /// Flattened alongside the event's own fields: `{"t_us":…,"seq":…,
    /// "kind":…,…}`.
    fn to_content(&self) -> Content {
        let mut fields = vec![
            ("t_us".to_owned(), self.time.to_content()),
            ("seq".to_owned(), self.seq.to_content()),
        ];
        if let Content::Map(event_fields) = self.event.to_content() {
            fields.extend(event_fields);
        }
        Content::Map(fields)
    }
}

impl Serialize for LinkFault {
    fn to_content(&self) -> Content {
        let group = |g: Option<&std::collections::BTreeSet<NodeId>>| match g {
            None => Content::Null,
            Some(set) => Content::Seq(set.iter().map(Serialize::to_content).collect()),
        };
        Content::Map(vec![
            ("from".to_owned(), group(self.from_group())),
            ("to".to_owned(), group(self.to_group())),
            ("drop_p".to_owned(), Content::F64(self.drop_p())),
            ("dup_p".to_owned(), Content::F64(self.dup_p())),
            ("reorder_p".to_owned(), Content::F64(self.reorder_p())),
            (
                "reorder_extra".to_owned(),
                self.reorder_extra().to_content(),
            ),
        ])
    }
}

impl Deserialize for LinkFault {
    fn from_content(content: &Content) -> Result<LinkFault, DeError> {
        Ok(LinkFault::from_parts(
            serde::__private::field::<Option<Vec<NodeId>>>(content, "from")?,
            serde::__private::field::<Option<Vec<NodeId>>>(content, "to")?,
            serde::__private::field(content, "drop_p")?,
            serde::__private::field(content, "dup_p")?,
            serde::__private::field(content, "reorder_p")?,
            serde::__private::field(content, "reorder_extra")?,
        ))
    }
}

impl Serialize for ByzantineBehavior {
    fn to_content(&self) -> Content {
        match self {
            ByzantineBehavior::Mutate => Content::Str("mutate".to_owned()),
            ByzantineBehavior::Equivocate => Content::Str("equivocate".to_owned()),
            ByzantineBehavior::Withhold => Content::Str("withhold".to_owned()),
            ByzantineBehavior::Delay(extra) => Content::Map(vec![(
                "delay_micros".to_owned(),
                Content::U64(extra.as_micros()),
            )]),
        }
    }
}

impl Deserialize for ByzantineBehavior {
    fn from_content(content: &Content) -> Result<ByzantineBehavior, DeError> {
        match content {
            Content::Str(s) => match s.as_str() {
                "mutate" => Ok(ByzantineBehavior::Mutate),
                "equivocate" => Ok(ByzantineBehavior::Equivocate),
                "withhold" => Ok(ByzantineBehavior::Withhold),
                other => Err(DeError::custom(format!(
                    "unknown byzantine behavior {other:?}"
                ))),
            },
            Content::Map(_) => {
                let micros: u64 = serde::__private::field(content, "delay_micros")?;
                Ok(ByzantineBehavior::Delay(SimDuration::from_micros(micros)))
            }
            _ => Err(DeError::custom("expected byzantine behavior string or map")),
        }
    }
}

impl Serialize for ByzantineSpec {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (
                "nodes".to_owned(),
                Content::Seq(self.nodes().iter().map(Serialize::to_content).collect()),
            ),
            ("behavior".to_owned(), self.behavior().to_content()),
        ])
    }
}

impl Deserialize for ByzantineSpec {
    fn from_content(content: &Content) -> Result<ByzantineSpec, DeError> {
        let nodes: Vec<NodeId> = serde::__private::field(content, "nodes")?;
        let behavior: ByzantineBehavior = serde::__private::field(content, "behavior")?;
        Ok(ByzantineSpec::new(nodes, behavior))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DropCause, EventCounters, FaultKind, PanicRecord, SimStats};

    fn roundtrip<T: Serialize + Deserialize>(value: &T) -> T {
        T::from_content(&value.to_content()).expect("roundtrip")
    }

    #[test]
    fn newtypes_roundtrip_as_integers() {
        let t = SimTime::from_micros(1_234_567);
        assert_eq!(t.to_content(), Content::U64(1_234_567));
        assert_eq!(roundtrip(&t), t);
        let d = SimDuration::from_millis(250);
        assert_eq!(roundtrip(&d), d);
        let node = NodeId::new(7);
        assert_eq!(node.to_content(), Content::U64(7));
        assert_eq!(roundtrip(&node), node);
    }

    #[test]
    fn panic_record_roundtrips() {
        let record = PanicRecord {
            time: SimTime::from_secs(133),
            node: NodeId::new(9),
            reason: "EAH mismatch".to_owned(),
        };
        assert_eq!(roundtrip(&record), record);
    }

    #[test]
    fn link_fault_roundtrips() {
        let fault = LinkFault::between([NodeId::new(1), NodeId::new(2)], [NodeId::new(0)])
            .with_drop(0.25)
            .with_duplicate(0.5)
            .with_reorder(0.75, SimDuration::from_millis(40));
        assert_eq!(roundtrip(&fault), fault);
        // An unconstrained rule keeps its None groups distinct from
        // empty groups.
        let all = LinkFault::all().with_drop(1.0);
        let back = roundtrip(&all);
        assert_eq!(back, all);
        assert!(back.from_group().is_none());
    }

    #[test]
    fn byzantine_spec_roundtrips() {
        for behavior in [
            ByzantineBehavior::Mutate,
            ByzantineBehavior::Equivocate,
            ByzantineBehavior::Withhold,
            ByzantineBehavior::Delay(SimDuration::from_millis(750)),
        ] {
            let spec = ByzantineSpec::new([NodeId::new(8), NodeId::new(9)], behavior);
            assert_eq!(roundtrip(&spec), spec);
        }
        let none = ByzantineSpec::none();
        assert_eq!(roundtrip(&none), none);
    }

    #[test]
    fn stats_roundtrip() {
        let stats = SimStats {
            messages_sent: 1,
            messages_delivered: 2,
            messages_dropped_dead: 3,
            messages_dropped_partition: 4,
            messages_dropped_link: 10,
            messages_duplicated_link: 11,
            messages_reordered_link: 12,
            timers_fired: 5,
            timers_stale: 6,
            requests_delivered: 7,
            requests_dropped: 8,
            events_processed: 9,
            dropped_trace_lines: 13,
            speculative_reexecutions: 14,
            conflict_aborts: 15,
            pool_evictions: 16,
            pool_replacements: 17,
        };
        assert_eq!(roundtrip(&stats), stats);
    }

    #[test]
    fn sim_events_serialise_tagged_by_kind() {
        let dropped = SimEvent::MessageDropped {
            from: NodeId::new(0),
            to: NodeId::new(3),
            cause: DropCause::Partition,
        };
        let Content::Map(fields) = dropped.to_content() else {
            panic!("expected map");
        };
        assert_eq!(
            fields[0],
            (
                "kind".to_owned(),
                Content::Str("message_dropped".to_owned())
            )
        );
        assert!(fields.contains(&("cause".to_owned(), Content::Str("partition".to_owned()))));

        let phase = SimEvent::Phase {
            node: NodeId::new(2),
            phase: "sortition",
        };
        let Content::Map(fields) = phase.to_content() else {
            panic!("expected map");
        };
        assert!(fields.contains(&("phase".to_owned(), Content::Str("sortition".to_owned()))));

        let fault = SimEvent::FaultActivated {
            kind: FaultKind::Slowdown,
        };
        let Content::Map(fields) = fault.to_content() else {
            panic!("expected map");
        };
        assert!(fields.contains(&("fault".to_owned(), Content::Str("slowdown".to_owned()))));
    }

    #[test]
    fn timed_event_flattens_time_and_seq() {
        let timed = TimedEvent {
            time: SimTime::from_millis(5),
            seq: 9,
            event: SimEvent::Committed {
                node: NodeId::new(1),
            },
        };
        let Content::Map(fields) = timed.to_content() else {
            panic!("expected map");
        };
        assert_eq!(fields[0], ("t_us".to_owned(), Content::U64(5_000)));
        assert_eq!(fields[1], ("seq".to_owned(), Content::U64(9)));
        assert_eq!(
            fields[2],
            ("kind".to_owned(), Content::Str("committed".to_owned()))
        );
    }

    #[test]
    fn event_counters_roundtrip() {
        let counters = EventCounters {
            commits: 42,
            phase_marks: 7,
            log_lines: 1,
            ..EventCounters::default()
        };
        assert_eq!(roundtrip(&counters), counters);
    }
}
