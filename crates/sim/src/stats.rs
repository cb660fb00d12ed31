//! Run-level observations collected by the kernel: commit log, panics and
//! traffic counters.

use crate::{NodeId, SimTime};

/// One commit notification: node `node` committed `commit` at `time`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRecord<C> {
    /// When the commit happened on the simulated clock.
    pub time: SimTime,
    /// The node that reported the commit.
    pub node: NodeId,
    /// The protocol-defined commit payload (typically a transaction id).
    pub commit: C,
}

/// A fatal node failure reported through [`Ctx::panic_node`].
///
/// [`Ctx::panic_node`]: crate::Ctx::panic_node
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PanicRecord {
    /// When the node aborted.
    pub time: SimTime,
    /// The node that aborted.
    pub node: NodeId,
    /// The panic message.
    pub reason: String,
}

/// Aggregate traffic and scheduling counters for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SimStats {
    /// Messages handed to the network by protocols.
    pub messages_sent: u64,
    /// Messages delivered to a running node.
    pub messages_delivered: u64,
    /// Messages dropped because the destination (or source) was crashed
    /// or panicked.
    pub messages_dropped_dead: u64,
    /// Messages dropped by partition rules.
    pub messages_dropped_partition: u64,
    /// Messages dropped by probabilistic link faults or asymmetric
    /// partitions.
    pub messages_dropped_link: u64,
    /// Extra message copies injected by duplicating link faults (each
    /// one adds a delivery on top of `messages_sent`).
    pub messages_duplicated_link: u64,
    /// Messages held back by reordering link faults (delivered late,
    /// possibly overtaken by packets sent after them).
    pub messages_reordered_link: u64,
    /// Timers that fired and were dispatched.
    pub timers_fired: u64,
    /// Timers skipped because they were cancelled or invalidated by a
    /// crash/restart.
    pub timers_stale: u64,
    /// Client requests delivered to a running node.
    pub requests_delivered: u64,
    /// Client requests dropped because the target node was down.
    pub requests_dropped: u64,
    /// Total events processed by the kernel.
    pub events_processed: u64,
    /// Always 0 — nothing increments it. The field stays because
    /// serialised `SimStats` are pinned artifact bytes; the next
    /// cache-schema bump may drop it.
    pub dropped_trace_lines: u64,
    /// Speculative transaction executions that had to be redone —
    /// Block-STM within-block conflict re-executions plus
    /// `SEQUENCE_NUMBER_TOO_OLD` re-runs (folded from per-node
    /// [`ContentionStats`]).
    pub speculative_reexecutions: u64,
    /// Speculative executions aborted because another transaction in the
    /// same block wrote an account they read (folded from per-node
    /// [`ContentionStats`]).
    pub conflict_aborts: u64,
    /// Transactions a node's pool turned away for capacity (folded from
    /// per-node [`ContentionStats`]).
    pub pool_evictions: u64,
    /// Attempts to occupy an already-taken (account, nonce) pool slot
    /// with a different transaction — first arrival wins, like
    /// production pools without fee bumping (folded from per-node
    /// [`ContentionStats`]).
    pub pool_replacements: u64,
}

impl SimStats {
    /// Folds one node's contention counters into the run totals.
    pub fn absorb_contention(&mut self, c: &ContentionStats) {
        self.speculative_reexecutions += c.speculative_reexecutions;
        self.conflict_aborts += c.conflict_aborts;
        self.pool_evictions += c.pool_evictions;
        self.pool_replacements += c.pool_replacements;
    }
}

/// Per-node contention counters reported by a protocol through
/// [`Protocol::contention_stats`]; the kernel folds them into
/// [`SimStats`] when a run's statistics are read.
///
/// All four stay zero for the paper's uniform constant-rate workload on
/// honest configurations — they move when production-shaped traffic
/// (Zipf skew, bursts, conflicting read-write sets) stresses the
/// mempool and execution layers.
///
/// [`Protocol::contention_stats`]: crate::Protocol::contention_stats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Speculative executions that were redone (Block-STM conflict
    /// re-executions and stale re-runs).
    pub speculative_reexecutions: u64,
    /// Speculative executions aborted on a read-write conflict.
    pub conflict_aborts: u64,
    /// Transactions turned away by a full pool.
    pub pool_evictions: u64,
    /// Conflicting same-nonce arrivals (attempted replacements).
    pub pool_replacements: u64,
}

impl ContentionStats {
    /// Sums another node's counters into this one.
    pub fn merge(&mut self, other: &ContentionStats) {
        self.speculative_reexecutions += other.speculative_reexecutions;
        self.conflict_aborts += other.conflict_aborts;
        self.pool_evictions += other.pool_evictions;
        self.pool_replacements += other.pool_replacements;
    }

    /// Total contention events of any kind.
    pub fn total(&self) -> u64 {
        self.speculative_reexecutions
            + self.conflict_aborts
            + self.pool_evictions
            + self.pool_replacements
    }
}
