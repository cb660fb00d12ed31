//! # stabl-stats — replication statistics for the Stabl campaigns
//!
//! The paper reports each sensitivity score from a single run and its
//! §8 limitations concede the numbers carry no variance estimate. The
//! simulator makes replication cheap, so this crate supplies the two
//! statistical layers the campaigns were missing:
//!
//! 1. **Mergeable summary sketches** ([`MeanVar`], [`QuantileSketch`]):
//!    single-pass mean/variance (Welford) and a deterministic
//!    fixed-bucket quantile sketch whose `merge` is associative and
//!    order-insensitive, so per-seed summaries fold into campaign
//!    summaries without re-touching raw samples.
//! 2. **Replication statistics** ([`SeedSequence`], [`MetricCi`],
//!    [`ReplicatedCell`]): one audited seed-derivation path fans a cell
//!    out over N seeds, and percentile-bootstrap confidence intervals
//!    ([`percentile_ci`]) summarise the per-seed scores. All resampling
//!    is driven by [`stabl_sim::DetRng`], so two runs with the same
//!    seed produce byte-identical artifacts — which is why a replicated
//!    campaign is checked like every other artifact, by its bytes.
//!
//! Library code opts into the workspace clippy lints (no wall clocks,
//! ambient entropy, panics or float equality), and `stabl-lint` checks
//! that every `Serialize` type is listed in the cache-schema manifest.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::float_cmp))]
#![warn(missing_docs)]

mod bootstrap;
mod replicate;
mod seed;
mod sketch;

pub use bootstrap::{percentile_ci, ConfidenceInterval, BOOTSTRAP_RESAMPLES, CI_ALPHA};
pub use replicate::{
    CellObservation, MetricCi, ReplicateScore, ReplicatedCampaign, ReplicatedCell,
};
pub use seed::SeedSequence;
pub use sketch::{MeanVar, QuantileSketch, SKETCH_SUB_BUCKET_BITS};
