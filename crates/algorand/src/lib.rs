//! # stabl-algorand — a simulated Algorand validator
//!
//! Models the Algorand blockchain (v3.22.0 in the paper) for the Stabl
//! fault-tolerance study:
//!
//! * **Cryptographic sortition** ([`sortition`]) — proposers are drawn
//!   per (round, attempt) from a VRF-lite; crashed nodes keep being
//!   selected, which is what slows rounds down under crashes (paper §4).
//! * **BA★ agreement** — proposal filtering, soft votes and locked cert
//!   votes with a 90 % quorum: one crash (`f = t`) is tolerated, two
//!   (`f = t + 1`, 20 % offline) stall liveness until the nodes return.
//! * **Dynamic round time** — the filter timeout shrinks on fast rounds
//!   and resets to its default whenever a round needs a recovery
//!   attempt, producing the paper's periodic latency spikes under
//!   crashes and the warm-up throughput ramp in the baseline.
//! * **Gossip + reconnect backoff** — push gossip for transactions and a
//!   slow dial schedule that reproduces the ≈99 s partition recovery
//!   (§6) versus the fast active reconnect after restarts (≈9 s, §5).

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::float_cmp))]
#![warn(missing_docs)]

mod config;
mod node;
pub mod sortition;

pub use config::AlgorandConfig;
pub use node::{AlgorandMsg, AlgorandNode, AlgorandTimer};
