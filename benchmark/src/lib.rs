//! The repository's benchmark: four workloads driven over the served
//! socket, the paper's three axes end to end, and a per-layer traced run.
//! README.md beside this crate's manifest is the manual.
//!
//! A real `taurus_server::Server` is hosted in-process on `127.0.0.1:0`
//! and driven through `taurus_server::Client` over the loopback socket;
//! every reply is checked against a golden. Layers are measured from
//! outside: `Metrics::snapshot()` deltas at the counters the product
//! already keeps, and timed calls into each crate's public functions.

pub mod cluster;
pub mod golden;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod metrics;
pub mod run;
pub mod suite;
pub mod sys;
pub mod trace;
pub mod workload;
