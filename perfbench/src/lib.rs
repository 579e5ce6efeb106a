//! The repository benchmark: four named workloads run through
//! `ScenarioSpec::run_with` with tracing off for the end-to-end
//! metrics, and a separate traced run that splits each workload's
//! time across the crates from outside (see [`layers`]).

pub mod host;
pub mod layers;
pub mod metrics;
pub mod reps;
pub mod stats;
pub mod timed;
pub mod workloads;
