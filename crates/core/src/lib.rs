//! # stabl — sensitivity testing and analysis for blockchains
//!
//! A Rust reproduction of **"STABL: The Sensitivity of Blockchains to
//! Failures"** (Gramoli, Guerraoui, Lebedev, Voron — Middleware 2025).
//!
//! Stabl measures the *sensitivity* of a blockchain to an adversarial
//! environment: the absolute difference between the areas under the
//! empirical CDFs of transaction latencies in a baseline and in an
//! altered run ([`metrics::Sensitivity`]). Four alterations are studied
//! on five simulated chains (Algorand, Aptos, Avalanche, Redbelly,
//! Solana): permanent crashes, transient node failures, network
//! partitions and a redundant "secure client" coping with Byzantine
//! nodes.
//!
//! ## Quickstart
//!
//! ```
//! use stabl::{Chain, PaperSetup, ScenarioKind};
//!
//! // A scaled-down (60 s) version of the paper's crash experiment.
//! let setup = PaperSetup::quick(60, 42);
//! let report = setup.sensitivity(Chain::Redbelly, ScenarioKind::Crash);
//! println!("{report}");
//! assert!(!report.sensitivity.is_infinite());
//! ```
//!
//! The full campaign (400 s runs, all chains × all scenarios) is driven
//! by the `stabl-bench` binary, one subcommand per figure of the paper.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::float_cmp))]
#![warn(missing_docs)]

mod chains;
mod client;
mod commits;
pub mod diagnose;
mod faults;
mod harness;
pub mod metrics;
pub mod observe;
pub mod report;
mod scenario;

pub use chains::Chain;
pub use client::{ClientMode, RetryPolicy};
pub use faults::{FaultAction, FaultError, FaultSchedule, FaultWindow};
pub use harness::{run_protocol, run_protocol_traced, RunConfig, RunResult, RunTrace, TracedRun};
pub use scenario::{report_from_runs, PaperSetup, ScenarioKind};
// The Diablo-style workload generator (paper-standard grid streams and
// the production traffic model behind WorkloadSpec::production).
pub use stabl_workload::{
    AccountPopulation, ArrivalProcess, ConflictProfile, Submission, TrafficModel, WorkloadShape,
    WorkloadSpec, ZipfSampler,
};

// The message-level adversity surface, re-exported so campaign configs
// can be written against one crate.
pub use stabl_sim::{ByzantineBehavior, ByzantineSpec, CaptureLevel, LinkFault, SimEvent};
