//! # stabl-redbelly — a simulated Redbelly validator
//!
//! Models the Redbelly blockchain (v0.36.2 in the paper) for the Stabl
//! fault-tolerance study:
//!
//! * **DBFT superblock consensus** — leaderless and deterministic: every
//!   validator proposes a batch each height, one binary consensus per
//!   proposer slot decides inclusion, and the superblock is the union of
//!   all included batches. No single crashed or slow node can delay a
//!   decision, which is why Redbelly is nearly insensitive to `f = t`
//!   crashes (paper §4), and the uncapped superblock absorbs the whole
//!   post-outage backlog in one or two heights (§5).
//! * **Weak-coordinator binary consensus** — an all-to-all echo exchange
//!   per round with majority adoption and a rotating coordinator used
//!   only for tie-breaks ([`BinaryInstance`]).
//! * **`MaxIdleTime` reconnection** — 30 s idle teardown with a slow dial
//!   schedule, reproducing the ≈81 s partition recovery of §6 versus the
//!   fast, active reconnect after process restarts.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::float_cmp))]
#![warn(missing_docs)]

mod binary;
mod config;
mod credence;
mod node;

pub use binary::{BinaryAction, BinaryInstance};
pub use config::RedbellyConfig;
pub use credence::CredenceRead;
pub use node::{RedbellyMsg, RedbellyNode, RedbellyTimer};
