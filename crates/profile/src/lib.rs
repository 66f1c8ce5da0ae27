//! # reach-profile — sample-based profiling analysis
//!
//! Step (i) of the paper's PGO pipeline (§3.2): run the original code
//! under PEBS-style sampling and turn the raw samples into the artifacts
//! the instrumenter consumes.
//!
//! * [`collect`] drives a profiled run: programs the §3.2 event set
//!   (L2-miss loads, L3-miss loads, stalled cycles, retired instructions),
//!   drains buffers periodically, snapshots the LBR, and reports the
//!   collection *cost*.
//! * [`Profile`] is the aggregate: per-PC miss-likelihood and stall
//!   estimates (sample counts scaled by period), serializable between
//!   pipeline phases.
//! * [`BlockLatencyEstimator`] folds branch records into straight-run
//!   latencies and taken-edge counts. The profile carries and serializes
//!   them, but no pass reads them yet: the scavenger pass charges loads
//!   from the miss and stall estimates above.
//! * [`score`] rates a profile against simulator ground truth
//!   (precision/recall/MAE), powering the sampling-parameter experiment.
//! * [`OnlineStalenessEstimator`] keeps a bounded in-situ sample window
//!   while serving live traffic and estimates how stale the deployed
//!   profile has become — the trigger signal for the run-time
//!   supervisor's re-PGO loop.

mod accuracy;
mod collector;
mod json;
mod lbr_analysis;
mod online;
mod profile;
mod validate;

pub use accuracy::{score, Accuracy};
pub use collector::{collect, CollectionCost, CollectorConfig};
pub use json::{Json, JsonError};
pub use lbr_analysis::{BlockLatencyEstimator, RunTiming};
pub use online::{OnlineEstimatorOptions, OnlineStalenessEstimator};
pub use profile::{Periods, Profile};
pub use validate::{validate_profile, ProfileInvalid, ProfileValidationOptions};
