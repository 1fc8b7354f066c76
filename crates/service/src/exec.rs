//! The per-worker executor: the one plan-and-execute path.
//!
//! Every multiplication in the system — a single `A · B` (a one-step
//! [`ChainRequest`]), a canonical workload, or a generic chain program —
//! runs through [`Executor::run`]. Each step goes
//! [`ProblemContext::from_shared`] → [`PlanKey::with_options`] →
//! single-flight [`PlanCache::get_or_build`] → [`ReorgPlan::execute_with_scratch`],
//! so every step gets its own estimator/reorder decision and its own cache
//! hit or miss. A hit executes the plan in `Cached` mode, which serves the
//! simulated profiles from the plan's profile memo after its first hit, so
//! the step's host cost is the numeric multiply. `SpgemmService` workers,
//! `br-net` server workers, the bench `chain` suite and the CLI `chain`
//! mode each own one executor per worker thread.

use std::sync::Arc;
use std::time::Instant;

use block_reorganizer::plan::{PlanMode, ReorgPlan};
use block_reorganizer::reorder::ReorderStrategy;
use block_reorganizer::ReorganizerConfig;
use br_gpu_sim::device::DeviceConfig;
use br_gpu_sim::sim::GpuSimulator;
use br_obs::Registry;
use br_sparse::CsrMatrix;
use br_spgemm::accum::ScratchPool;
use br_spgemm::context::ProblemContext;
use br_spgemm::estimate::EstimatorConfig;

use crate::cache::{PlanCache, PlanKey};
use crate::chain::{
    register_chain_instruments, ChainInstruments, ChainOutcome, ChainRequest, StepOutcome,
};
use crate::job::JobError;

/// One worker's execution state: its simulated device, merge scratch, and
/// handles to the shared plan cache and metrics registry.
pub struct Executor {
    worker: usize,
    device: DeviceConfig,
    sim: GpuSimulator,
    // Jobs on this worker reuse the same warmed accumulators, so
    // steady-state merging allocates nothing per row.
    pool: ScratchPool<f64>,
    cache: Arc<PlanCache>,
    estimator: Option<EstimatorConfig>,
    reorder: ReorderStrategy,
    registry: Arc<Registry>,
    chain: ChainInstruments,
}

/// Timing/plan metadata the executor threads through
/// [`br_workloads::ChainProgram::execute_with`] per step.
struct StepMeta {
    cache_hit: bool,
    method: &'static str,
    total_ms: f64,
    precalc_ms: f64,
    expansion_ms: f64,
    merge_ms: f64,
    preprocess_ms: f64,
    gflops: f64,
}

impl Executor {
    /// An executor for worker `worker` on `device`, planning through
    /// `cache` with the given estimator and reorder settings. Registers
    /// the `br_chain_*` families in `registry` (idempotent), so they
    /// export at zero before the first step runs.
    pub fn new(
        worker: usize,
        device: DeviceConfig,
        cache: Arc<PlanCache>,
        registry: Arc<Registry>,
        estimator: Option<EstimatorConfig>,
        reorder: ReorderStrategy,
    ) -> Self {
        Executor {
            worker,
            sim: GpuSimulator::new(device.clone()),
            device,
            pool: ScratchPool::new(),
            cache,
            estimator,
            reorder,
            chain: register_chain_instruments(&registry),
            registry,
        }
    }

    /// Name of the simulated device.
    pub fn device(&self) -> &str {
        &self.device.name
    }

    /// Runs `request` to completion, step by step. `queue_ms` is echoed in
    /// the outcome. A failing step fails the whole request with a message
    /// naming the step.
    pub fn run(&self, request: ChainRequest, queue_ms: f64) -> Result<ChainOutcome, JobError> {
        let t0 = Instant::now();
        let job_span = self.registry.span("job");
        let run = request
            .program
            .execute_with(&request.inputs, |_, _, a, b| {
                self.step(&request.config, a, b)
            })
            .map_err(|e: br_workloads::ChainError<String>| JobError {
                id: request.id,
                label: request.label.clone(),
                message: format!("chain failed: {e}"),
            })?;
        drop(job_span);

        let mut steps = Vec::with_capacity(run.steps.len());
        let mut total_ms = 0.0;
        for record in run.steps {
            let meta = record.meta;
            self.chain.steps.inc();
            if meta.cache_hit {
                self.chain.cache_hits.inc();
            } else {
                self.chain.cache_misses.inc();
            }
            if record.fresh_structure {
                self.chain.structure_churn.inc();
            }
            self.chain.fill_in.observe(record.fill_in_permille);
            total_ms += meta.total_ms;
            steps.push(StepOutcome {
                index: record.index,
                label: record.label,
                cache_hit: meta.cache_hit,
                method: meta.method,
                total_ms: meta.total_ms,
                precalc_ms: meta.precalc_ms,
                expansion_ms: meta.expansion_ms,
                merge_ms: meta.merge_ms,
                preprocess_ms: meta.preprocess_ms,
                gflops: meta.gflops,
                product_nnz: record.product_nnz,
                output_nnz: record.output_nnz,
                fill_in_permille: record.fill_in_permille,
                fresh_structure: record.fresh_structure,
            });
        }
        Ok(ChainOutcome {
            id: request.id,
            label: request.label,
            worker: self.worker,
            device: self.device.name.clone(),
            steps,
            total_ms,
            queue_ms,
            host_ms: t0.elapsed().as_secs_f64() * 1e3,
            result: run.result,
        })
    }

    /// One SpGEMM through the plan cache.
    fn step(
        &self,
        config: &ReorganizerConfig,
        a: &Arc<CsrMatrix<f64>>,
        b: &Arc<CsrMatrix<f64>>,
    ) -> Result<(CsrMatrix<f64>, StepMeta), String> {
        // `from_shared` bumps the operands' `Arc`s instead of deep-cloning
        // A, B, and the CSC copy.
        let ctx = ProblemContext::from_shared(a.clone(), b.clone())
            .map_err(|e| format!("invalid operands: {e}"))?;
        let key = PlanKey::with_options(
            ctx.signature(),
            &self.device.name,
            config,
            self.estimator.as_ref(),
            self.reorder,
        );
        // Single-flight: concurrent workers racing on the same absent key
        // produce exactly one build (one miss) and one hit per other
        // lookup, so cache counters don't depend on worker count or
        // scheduling.
        let (plan, cache_hit) = {
            let _plan_span = self.registry.span("plan");
            self.cache.get_or_build(&key, || {
                Arc::new(match &self.estimator {
                    Some(est) => ReorgPlan::build_estimated_with_reorder(
                        &ctx,
                        config,
                        &self.device,
                        est,
                        self.reorder,
                    ),
                    None => ReorgPlan::build_with_reorder(&ctx, config, &self.device, self.reorder),
                })
            })
        };
        let mode = if cache_hit {
            PlanMode::Cached
        } else {
            PlanMode::Cold
        };
        let run = {
            let _exec_span = self.registry.span("execute");
            plan.execute_with_scratch(&self.sim, &ctx, mode, Some(&self.pool))
                .map_err(|e| format!("execution failed: {e}"))?
        };
        let meta = StepMeta {
            cache_hit,
            method: plan.method.name(),
            total_ms: run.total_ms,
            precalc_ms: run.phase_ms("precalc"),
            expansion_ms: run.phase_ms("expansion"),
            merge_ms: run.phase_ms("merge"),
            preprocess_ms: run.preprocess_ms,
            gflops: run.gflops(),
        };
        Ok((run.result, meta))
    }
}
