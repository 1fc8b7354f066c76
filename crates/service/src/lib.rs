//! # br-service — a concurrent spGEMM job service with plan reuse
//!
//! The Block Reorganizer pays a preprocessing cost on every multiplication:
//! workload precalculation, dominator/low-performer classification, and the
//! B-Splitting/B-Gathering index rewrites (paper Sections IV-B/C). In the
//! large-sparse-network workloads the paper targets, the *same* matrix is
//! multiplied over and over (`A·A`, iterative link analysis) — the
//! amortization opportunity that estimation-based systems such as OCEAN
//! (arXiv:2604.19004) and reordering-based SpGEMM (arXiv:2507.21253)
//! exploit by separating analysis from execution.
//!
//! This crate is the serving layer that cashes that opportunity in:
//!
//! * [`queue::JobQueue`] — a blocking MPMC queue feeding a pool of workers,
//!   one simulated device ([`br_gpu_sim::sim::GpuSimulator`]) per worker.
//! * [`exec::Executor`] — the one plan-and-execute path. Each worker owns
//!   one; every request, a single multiplication included, is a
//!   [`chain::ChainRequest`] it runs step by step through the plan cache.
//! * [`cache::PlanCache`] — an LRU cache of
//!   [`block_reorganizer::plan::ReorgPlan`] artifacts keyed by the
//!   operands' sparsity signature (dims, nnz, pointer/index hash), the
//!   reorganizer configuration, and the device. Hits skip precalculation
//!   and the host-side B-Splitting cost entirely.
//! * [`service::SpgemmService`] — submission API, worker lifecycle, and
//!   result collection.
//! * [`stats::ServiceStats`] — per-phase latency, queue depth, cache hit
//!   rate, and per-device utilization for one service run.
//! * [`chain`] — requests and outcomes; [`job`] — the job-file format
//!   consumed by `blockreorg-cli batch` and the wire front end.
//!
//! Observability: every service (and its plan cache) registers its
//! instruments — job lifecycle spans (`job/submit`, `job`, `job/plan`,
//! `job/execute`), queue gauges, per-step `br_chain_*` counters, and cache
//! hit/miss/eviction/single-flight counters — in a [`br_obs::Registry`]. By default each service gets a
//! private registry; pass one via
//! [`service::ServiceConfig::with_registry`] (the CLI uses
//! [`br_obs::global`]) to export them. All queue/cache locks go through
//! [`br_obs::lock_recover`], so a panicking worker can never poison the
//! service into a deadlock.
//!
//! Everything is std-only (threads + mutex/condvar); the crate adds no
//! runtime dependencies beyond the workspace.
//!
//! ```
//! use br_service::prelude::*;
//! use br_datasets::rmat::{rmat, RmatConfig};
//! use std::sync::Arc;
//!
//! let a = Arc::new(rmat(RmatConfig::snap_like(8, 6, 7)).to_csr());
//! let jobs: Vec<ChainRequest> = (0..4)
//!     .map(|id| ChainRequest::square(id, a.clone()))
//!     .collect();
//! let batch = SpgemmService::run_chains(ServiceConfig::default(), jobs);
//! assert_eq!(batch.chains.len(), 4);
//! assert!(batch.stats.cache.hits >= 3, "repeats reuse the plan");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod chain;
pub mod exec;
pub mod job;
pub mod queue;
pub mod service;
pub mod stats;

/// Convenient glob-import surface for the CLI and tests.
pub mod prelude {
    pub use crate::cache::{CacheStats, PlanCache, PlanKey};
    pub use crate::chain::{
        register_chain_instruments, ChainInstruments, ChainOutcome, ChainRequest, StepOutcome,
    };
    pub use crate::exec::Executor;
    pub use crate::job::{expand_requests, parse_job_file, JobError, JobSpec, MatrixSource};
    pub use crate::queue::{JobQueue, PushError};
    pub use crate::service::{BatchOutcome, ServiceConfig, SpgemmService, SubmitError};
    pub use crate::stats::{ServiceStats, WorkerStats};
}

pub use cache::{CacheStats, PlanCache, PlanKey};
pub use chain::{
    register_chain_instruments, ChainInstruments, ChainOutcome, ChainRequest, StepOutcome,
};
pub use exec::Executor;
pub use job::JobError;
pub use queue::{JobQueue, PushError};
pub use service::{BatchOutcome, ServiceConfig, SpgemmService, SubmitError};
pub use stats::{ServiceStats, WorkerStats};
