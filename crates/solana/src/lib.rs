//! # stabl-solana — a simulated Solana validator
//!
//! Models the Solana blockchain (v1.18.1 in the paper) for the Stabl
//! fault-tolerance study:
//!
//! * **Mempool-less leader pipeline** — RPC nodes forward client
//!   transactions straight to the scheduled leaders and retry every slot;
//!   crashed leaders leave empty slots followed by catch-up bursts, the
//!   throughput oscillation of the paper's §4.
//! * **Slots, warmup epochs and the leader schedule** ([`schedule`]) —
//!   deterministic, stake-weighted, computed ahead of time; the schedule
//!   cannot react to crashes.
//! * **Voting and rooting** — blocks confirm at a 2/3 supermajority and
//!   root a fixed distance behind; when more than `t` validators are
//!   unreachable, rooting stalls.
//! * **Epoch Accounts Hash** — the calculation must start from a bank
//!   rooted inside the epoch at the quarter mark and be in flight at the
//!   three-quarter mark, or `wait_get_epoch_accounts_hash` aborts the
//!   validator (anza-xyz/agave#1491). A transient outage or partition
//!   overlapping a short warmup epoch therefore crashes the whole
//!   cluster — the paper's headline Solana result (§5, §6).

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::float_cmp))]
#![warn(missing_docs)]

mod config;
mod node;
mod outbox;
pub mod schedule;

pub use config::SolanaConfig;
pub use node::{SolanaMsg, SolanaNode, SolanaTimer};
pub use schedule::EpochSchedule;
