//! The layer-by-layer replay: the same request stream, run in-process
//! through each layer's public functions, with a span around every call.
//!
//! A replayed multiplication mirrors `ReorgPlan::execute_with_scratch` on
//! the default plan (exact planning, no reordering): context, plan-cache
//! lookup (plan build on a miss), launch construction, simulation, and the
//! adaptive numeric merge. [`Replayer::cross_check`] proves the mirror
//! right: it runs `execute_with_scratch` on the same plan and mode and
//! requires byte-equal profiles and result.

use std::sync::Arc;
use std::time::Instant;

use block_reorganizer::classify::precalc_launch;
use block_reorganizer::plan::{PlanMode, ReorgPlan};
use block_reorganizer::reorder::ReorderStrategy;
use block_reorganizer::ReorganizerConfig;
use br_gpu_sim::device::DeviceConfig;
use br_gpu_sim::profiler::KernelProfile;
use br_gpu_sim::sim::GpuSimulator;
use br_net::frame::{ChainStepSummary, Frame, Lane};
use br_service::cache::{PlanCache, PlanKey};
use br_service::chain::ChainRequest;
use br_service::job::parse_job_file;
use br_sparse::CsrMatrix;
use br_spgemm::accum::{spgemm_adaptive_planned, ScratchPool};
use br_spgemm::context::ProblemContext;
use br_spgemm::estimate::MethodChoice;
use br_spgemm::merge::kway::binned_merge_launches;
use br_spgemm::numeric::default_threads;
use br_spgemm::workspace::Workspace;

use crate::trace::Tracer;

/// Work counted from the launches, profiles, and plans of replayed
/// multiplications.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// `MemSegment::transactions` summed over every launched block.
    pub l2_transactions: u64,
    /// Thread blocks launched.
    pub blocks: u64,
    /// Simulated L2 accesses, from the profiles.
    pub l2_accesses: u64,
    /// Simulated L2 hits.
    pub l2_hits: u64,
    /// Intermediate products merged by the numeric engine.
    pub products: u64,
    /// Output rows merged.
    pub rows: u64,
    /// Output rows in the heavy bin.
    pub heavy_rows: u64,
    /// Plans built by cache misses.
    pub plans_built: u64,
}

/// One replayed multiplication, kept for the cross-check.
pub struct Step {
    /// The operands' context.
    pub ctx: ProblemContext<f64>,
    /// The plan the lookup returned.
    pub plan: Arc<ReorgPlan>,
    /// Cold on a miss, Cached on a hit.
    pub mode: PlanMode,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// The numeric result.
    pub result: CsrMatrix<f64>,
    /// The simulated profiles.
    pub profiles: Vec<KernelProfile>,
    /// Simulated kernels plus charged preprocessing, ms.
    pub total_ms: f64,
    /// Host wall time of the replayed execute (launches, simulation,
    /// numeric merge), ns.
    pub execute_ns: u64,
}

/// The layer stack a replay drives: one simulator, scratch pool, and plan
/// cache, configured like one serving worker.
pub struct Replayer {
    device: DeviceConfig,
    config: ReorganizerConfig,
    sim: GpuSimulator,
    pool: ScratchPool<f64>,
    /// The replay's own plan cache.
    pub cache: PlanCache,
    /// Wall time of every plan build, warm-up included, ns.
    pub build_ns: Vec<u64>,
    /// Work counted so far.
    pub counts: Counts,
}

impl Replayer {
    /// A replayer whose cache holds `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        let device = DeviceConfig::titan_xp();
        Replayer {
            sim: GpuSimulator::new(device.clone()),
            device,
            config: ReorganizerConfig::default(),
            pool: ScratchPool::new(),
            cache: PlanCache::new(capacity),
            build_ns: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Replays `a · b` layer by layer under request id `req`.
    pub fn multiply(
        &mut self,
        t: &mut Tracer,
        req: u64,
        a: &Arc<CsrMatrix<f64>>,
        b: &Arc<CsrMatrix<f64>>,
    ) -> Result<Step, String> {
        let ctx = t
            .span("spgemm.context", req, || {
                ProblemContext::from_shared(a.clone(), b.clone())
            })
            .map_err(|e| format!("invalid operands: {e}"))?;
        let key = PlanKey::with_options(
            ctx.signature(),
            &self.device.name,
            &self.config,
            None,
            ReorderStrategy::None,
        );
        let lookup = t.begin("service.plan_lookup", req);
        let (plan, cache_hit) = self.cache.get_or_build(&key, || {
            let id = t.begin("core.plan_build", req);
            let start = Instant::now();
            let plan = ReorgPlan::build_with_reorder(
                &ctx,
                &self.config,
                &self.device,
                ReorderStrategy::None,
            );
            self.build_ns.push(start.elapsed().as_nanos() as u64);
            t.end(id);
            Arc::new(plan)
        });
        t.end(lookup);
        if plan.permutation.is_some() || plan.method != MethodChoice::Reorganized {
            return Err("the replay mirrors only the default reorganized plan".to_string());
        }
        let mode = if cache_hit {
            PlanMode::Cached
        } else {
            PlanMode::Cold
        };

        let started = Instant::now();
        let exec = t.begin("service.execute", req);
        let (ws, launches, host_ms) = t.span("core.trace_build", req, || {
            let ws = Workspace::for_context(&ctx);
            let (expansion, _) = plan.expansion_launch(&ctx, &ws);
            let merge =
                binned_merge_launches(&ctx, &ws, plan.config.block_size, true, &plan.bins, |r| {
                    plan.limit_plan.extra_smem(r)
                });
            let mut launches = Vec::with_capacity(merge.len() + 2);
            let host_ms = match mode {
                PlanMode::Cold => {
                    launches.push(precalc_launch(&ctx, &ws));
                    plan.preprocess_ms
                }
                PlanMode::Cached => 0.0,
            };
            launches.push(expansion);
            launches.extend(merge);
            (ws, launches, host_ms)
        });
        let profiles = t.span("gpu_sim.simulate", req, || {
            self.sim.run_sequence(&launches, &ws.layout)
        });
        let result = t.span("spgemm.numeric", req, || {
            spgemm_adaptive_planned(
                &ctx.a,
                &ctx.b,
                default_threads(),
                &plan.bins,
                Some(&self.pool),
            )
        });
        let kernel_ms: f64 = profiles.iter().map(|p| p.time_ms).sum();
        t.end(exec);
        let execute_ns = started.elapsed().as_nanos() as u64;
        let result = result.map_err(|e| format!("numeric merge failed: {e}"))?;

        let c = &mut self.counts;
        let line = self.device.l2_line_bytes;
        c.plans_built += u64::from(!cache_hit);
        for launch in &launches {
            c.blocks += launch.blocks.len() as u64;
            c.l2_transactions += launch
                .blocks
                .iter()
                .flat_map(|b| &b.segments)
                .map(|s| s.transactions(line))
                .sum::<u64>();
        }
        for p in &profiles {
            c.l2_accesses += p.l2.accesses;
            c.l2_hits += p.l2.hits;
        }
        c.products += plan.bins.products.iter().sum::<u64>();
        c.rows += plan.bins.rows.iter().sum::<u64>();
        c.heavy_rows += plan.bins.rows[2];

        Ok(Step {
            ctx,
            plan,
            mode,
            cache_hit,
            result,
            profiles,
            total_ms: kernel_ms + host_ms,
            execute_ns,
        })
    }

    /// Runs `execute_with_scratch` on the step's plan and mode and requires
    /// profiles, time, and result byte-equal to the replay. Returns its
    /// wall time, ns.
    pub fn cross_check(&self, step: &Step) -> Result<u64, String> {
        let start = Instant::now();
        let run = step
            .plan
            .execute_with_scratch(&self.sim, &step.ctx, step.mode, Some(&self.pool))
            .map_err(|e| format!("execute_with_scratch failed: {e}"))?;
        let ns = start.elapsed().as_nanos() as u64;
        if format!("{:?}", run.profiles) != format!("{:?}", step.profiles) {
            return Err("replayed kernel profiles differ from execute_with_scratch".to_string());
        }
        if run.total_ms.to_bits() != step.total_ms.to_bits() {
            return Err("replayed simulated time differs from execute_with_scratch".to_string());
        }
        if !same_csr(&run.result, &step.result) {
            return Err("replayed result differs from execute_with_scratch".to_string());
        }
        Ok(ns)
    }
}

/// Runs `run(traced, i)` untraced and traced for each of `n` requests in
/// lockstep, alternating which goes first so both see the same warm host
/// caches. Returns each request's untraced wall, ns.
pub fn lockstep(
    n: usize,
    mut run: impl FnMut(bool, usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut untraced_ns = Vec::with_capacity(n);
    for i in 0..n {
        if i % 2 == 1 {
            run(true, i)?;
        }
        let start = Instant::now();
        run(false, i)?;
        untraced_ns.push(start.elapsed().as_nanos() as f64);
        if i % 2 == 0 {
            run(true, i)?;
        }
    }
    Ok(untraced_ns)
}

/// Bit-for-bit equality of two CSR matrices.
pub fn same_csr(x: &CsrMatrix<f64>, y: &CsrMatrix<f64>) -> bool {
    x.nrows() == y.nrows()
        && x.ncols() == y.ncols()
        && x.ptr() == y.ptr()
        && x.idx() == y.idx()
        && x.val().len() == y.val().len()
        && x.val()
            .iter()
            .zip(y.val())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Sends `frame` through the codec and back.
fn round_trip(frame: &Frame) -> Result<Frame, String> {
    Frame::decode(&frame.encode()).map_err(|e| format!("codec: {e}"))
}

/// One replayed `Submit`: codec, materialization, the multiplication, and
/// the `Result` frame's codec.
pub fn serve_request(
    r: &mut Replayer,
    t: &mut Tracer,
    req: u64,
    spec: &str,
) -> Result<Step, String> {
    let root = t.begin("request", req);
    let submit = Frame::Submit {
        request_id: req,
        lane: Lane::Interactive,
        deadline_ms: 0,
        spec: spec.to_string(),
    };
    let Frame::Submit { spec, .. } = t.span("net.frame_codec", req, || round_trip(&submit))? else {
        return Err("codec changed the frame type".to_string());
    };
    let (label, a, b) = t.span("datasets.materialize", req, || {
        let specs = parse_job_file(&spec)?;
        let one = specs.first().ok_or("empty spec")?;
        let a = Arc::new(one.source.load()?);
        let b = match &one.pair {
            Some(src) => Arc::new(src.load()?),
            None => a.clone(),
        };
        Ok::<_, String>((one.source.label(), a, b))
    })?;
    let step = r.multiply(t, req, &a, &b)?;
    let result = Frame::Result {
        request_id: req,
        label,
        worker: 0,
        cache_hit: step.cache_hit,
        total_ms: step.total_ms,
        gflops: gflops(step.ctx.flops, step.total_ms),
        nnz_c: step.result.nnz() as u64,
    };
    t.span("net.frame_codec", req, || round_trip(&result))?;
    t.end(root);
    Ok(step)
}

/// Simulated GFLOP/s of `flops` in `ms`, as `SpgemmRun::gflops` computes it.
fn gflops(flops: u64, ms: f64) -> f64 {
    if ms <= 0.0 {
        0.0
    } else {
        flops as f64 / (ms * 1e-3) / 1e9
    }
}

/// What one replayed chain produced.
pub struct ChainReplay {
    /// The last step's output.
    pub result: Arc<CsrMatrix<f64>>,
    /// Steps executed.
    pub steps: usize,
    /// Summed execute_with_scratch wall of the cross-checked steps, ns.
    pub checked_exec_ns: u64,
    /// Summed replayed-execute wall of the same steps, ns.
    pub replayed_exec_ns: u64,
}

/// One replayed chain: `SubmitChain` codec, materialization of its inputs,
/// `ChainProgram::execute_with` with a layer-by-layer runner, and the
/// `ChainResult` codec. With `check`, every step is cross-checked inside
/// the runner (only the cross-check pass sets it).
pub fn chain_request(
    r: &mut Replayer,
    t: &mut Tracer,
    req: u64,
    spec: &str,
    check: bool,
) -> Result<ChainReplay, String> {
    let root = t.begin("request", req);
    let submit = Frame::SubmitChain {
        request_id: req,
        lane: Lane::Batch,
        deadline_ms: 0,
        spec: spec.to_string(),
    };
    let Frame::SubmitChain { spec, .. } = t.span("net.frame_codec", req, || round_trip(&submit))?
    else {
        return Err("codec changed the frame type".to_string());
    };
    let request = t.span("datasets.materialize", req, || chain_from_spec(req, &spec))?;
    let mut checked_exec_ns = 0;
    let mut replayed_exec_ns = 0;
    let chain = t.begin("workloads.chain", req);
    let run = request
        .program
        .execute_with(&request.inputs, |_, _, a, b| {
            let step = r.multiply(t, req, a, b)?;
            if check {
                checked_exec_ns += r.cross_check(&step)?;
                replayed_exec_ns += step.execute_ns;
            }
            Ok::<_, String>((step.result, (step.cache_hit, step.total_ms)))
        })
        .map_err(|e| e.to_string())?;
    t.end(chain);
    let result = Frame::ChainResult {
        request_id: req,
        label: request.label.clone(),
        worker: 0,
        total_ms: run.steps.iter().map(|s| s.meta.1).sum(),
        nnz_c: run.result.nnz() as u64,
        steps: run
            .steps
            .iter()
            .map(|s| ChainStepSummary {
                label: s.label.clone(),
                cache_hit: s.meta.0,
                fresh_structure: s.fresh_structure,
                total_ms: s.meta.1,
                fill_in_permille: s.fill_in_permille,
                output_nnz: s.output_nnz as u64,
            })
            .collect(),
    };
    t.span("net.frame_codec", req, || round_trip(&result))?;
    t.end(root);
    Ok(ChainReplay {
        result: run.result,
        steps: run.steps.len(),
        checked_exec_ns,
        replayed_exec_ns,
    })
}

/// Builds a chain request from a `chain=` job line, as the server's
/// materialization does for `SubmitChain`.
pub fn chain_from_spec(id: u64, spec: &str) -> Result<ChainRequest, String> {
    let specs = parse_job_file(spec)?;
    let one = specs.first().ok_or("empty spec")?;
    let workload = one.chain.ok_or("chain spec without chain=")?;
    let base = one.source.load()?;
    Ok(
        ChainRequest::workload(id, workload, &base).with_label(format!(
            "{}:{}",
            one.source.label(),
            workload.spec()
        )),
    )
}
