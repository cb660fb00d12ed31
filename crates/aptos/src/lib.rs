//! # stabl-aptos — a simulated Aptos validator
//!
//! Models the Aptos blockchain (v1.9.3 in the paper) for the Stabl
//! fault-tolerance study:
//!
//! * **DiemBFT consensus** — round-based and leader-based with a
//!   pacemaker whose timeouts grow exponentially on consecutive failures
//!   and a quadratic (all-to-all timeout broadcast) view change, plus
//!   leader-reputation exclusion of unresponsive proposers. This is what
//!   makes Aptos oscillate after `f = t` crashes and stabilise once the
//!   crashed leaders leave the rotation (paper §4).
//! * **Block-STM executor timing** — committed blocks, request
//!   validation and `SEQUENCE_NUMBER_TOO_OLD` re-executions share one
//!   serialised executor timeline; its bounded throughput is why Aptos
//!   fails to clear the backlog after transient failures (§5) and why the
//!   secure client's redundant submissions degrade it (§7).
//! * **Fast-recovery networking** — 5 s connectivity probes with a
//!   2 s-base exponential backoff capped at 30 s, giving Aptos the same
//!   sensitivity to partitions as to transient faults (§6).

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::float_cmp))]
#![warn(missing_docs)]

mod config;
mod executor;
mod node;

pub use config::AptosConfig;
pub use executor::BlockStmExecutor;
pub use node::{AptosMsg, AptosNode, AptosTimer};
