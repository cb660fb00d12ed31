//! # stabl-avalanche — a simulated Avalanche validator
//!
//! Models the Avalanche C-Chain (AvalancheGo v1.10.18 / coreth in the
//! paper) for the Stabl fault-tolerance study:
//!
//! * **Snowball consensus** ([`Snowball`]) — repeated randomised polling
//!   with parameters `k`, `α > k/2`, `β`; crashed nodes remain in the
//!   sampling population, so polls fail and confidence resets, producing
//!   the throughput instability of §4 and a hard liveness dependency on
//!   ≥ 80 % of stake being reachable.
//! * **Inbound message throttling** ([`InboundThrottler`]) — the
//!   CPU-quota and buffer throttlers of AvalancheGo. After a transient
//!   outage, stale-transaction re-gossip storms saturate the quota,
//!   chits are deferred past their poll deadlines, no block is agreed,
//!   the backlog stays — a metastable congestion the network never
//!   leaves (§5, §6: infinite sensitivity).
//! * **Randomised nonce-blind gossip** — pending transactions re-gossip
//!   in effectively random order (coreth's `legacypool` unordered-map
//!   iteration), delaying low-nonce transactions; the secure client's
//!   redundant submissions bypass this and *improve* latency (§7).

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::float_cmp))]
#![warn(missing_docs)]

mod config;
mod node;
mod pending;
mod snowball;
mod throttle;

pub use config::AvalancheConfig;
pub use node::{AvalancheMsg, AvalancheNode, AvalancheTimer};
pub use snowball::Snowball;
pub use throttle::{Admission, InboundThrottler};
