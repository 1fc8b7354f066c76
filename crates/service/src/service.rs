//! The job service: submission API, worker pool, and result collection.
//!
//! [`SpgemmService::start`] spawns one worker thread per configured device;
//! each worker owns an [`Executor`] (its own [`br_gpu_sim::sim::GpuSimulator`]
//! and merge scratch) and pulls requests from a shared [`JobQueue`]. Every
//! step of a request consults the shared [`PlanCache`]: a hit executes in
//! [`block_reorganizer::plan::PlanMode::Cached`] (no precalculation kernel,
//! no host-side B-Splitting charge), a miss builds the
//! [`block_reorganizer::plan::ReorgPlan`], publishes it, and executes cold.
//! The numeric result is identical either way — the plan captures only
//! structure-dependent decisions.

use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use block_reorganizer::reorder::ReorderStrategy;
use br_gpu_sim::device::DeviceConfig;
use br_obs::{Counter, Gauge, Histogram, Registry};
use br_spgemm::estimate::EstimatorConfig;

use crate::cache::PlanCache;
use crate::chain::{ChainOutcome, ChainRequest};
use crate::exec::Executor;
use crate::job::JobError;
use crate::queue::{JobQueue, PushError};
use crate::stats::{ServiceStats, WorkerStats};

/// How to provision the service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// One worker is spawned per entry; duplicates give several workers on
    /// the same device model.
    pub devices: Vec<DeviceConfig>,
    /// Plan-cache capacity (entries; clamped to ≥ 1).
    pub cache_capacity: usize,
    /// Optional job-queue bound. `None` (the default) keeps the queue
    /// unbounded; `Some(n)` makes [`SpgemmService::try_submit`] shed with
    /// a typed [`SubmitError::QueueFull`] once `n` jobs are waiting — the
    /// same admission-control rejection the wire front end (`br-net`)
    /// applies at its shed threshold.
    pub queue_capacity: Option<usize>,
    /// Metrics registry shared by the service, its plan cache, and its job
    /// lifecycle spans. `None` gives the service a private registry (so
    /// concurrent services/tests never share counters); the CLI passes
    /// [`br_obs::global`] here to fold service metrics into the process
    /// exposition.
    pub registry: Option<Arc<Registry>>,
    /// Estimation-based planning. `None` (the default) builds every plan
    /// with the exact symbolic precalculation; `Some(cfg)` builds plans via
    /// `ReorgPlan::build_estimated_with_reorder` — sampled workload estimation with
    /// per-problem method selection, falling back to exact precalc when the
    /// confidence band exceeds `cfg.tolerance`. The estimator fingerprint
    /// is part of the [`crate::cache::PlanKey`], so flipping this setting never aliases
    /// cached plans built the other way.
    pub estimator: Option<EstimatorConfig>,
    /// Row-reordering strategy applied to every plan the pool builds
    /// ([`ReorderStrategy::None`], the default, is the historical
    /// pipeline). The strategy fingerprint is part of the [`crate::cache::PlanKey`], so
    /// reordered plans never alias baseline plans; results are
    /// bit-identical either way — the plan un-permutes its output.
    pub reorder: ReorderStrategy,
}

impl Default for ServiceConfig {
    /// One Titan Xp worker (the paper's primary target) and room for 32
    /// cached plans.
    fn default() -> Self {
        ServiceConfig {
            devices: vec![DeviceConfig::titan_xp()],
            cache_capacity: 32,
            queue_capacity: None,
            registry: None,
            estimator: None,
            reorder: ReorderStrategy::None,
        }
    }
}

impl ServiceConfig {
    /// `workers` identical workers on one device model.
    pub fn uniform(device: DeviceConfig, workers: usize, cache_capacity: usize) -> Self {
        ServiceConfig {
            devices: vec![device; workers.max(1)],
            cache_capacity,
            queue_capacity: None,
            registry: None,
            estimator: None,
            reorder: ReorderStrategy::None,
        }
    }

    /// Use `registry` for all service instruments (builder-style).
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Build plans with the sampling estimator instead of exact
    /// precalculation (builder-style).
    pub fn with_estimator(mut self, estimator: EstimatorConfig) -> Self {
        self.estimator = Some(estimator);
        self
    }

    /// Bound the job queue at `capacity` entries (builder-style).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Reorder A's rows under `strategy` before planning (builder-style).
    pub fn with_reorder(mut self, strategy: ReorderStrategy) -> Self {
        self.reorder = strategy;
        self
    }
}

/// Why [`SpgemmService::try_submit`] refused a request (it comes back).
/// Boxed: a request is far bigger than the `Ok` arm of a submit.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is at capacity.
    QueueFull(Box<ChainRequest>),
    /// The service is already draining.
    Draining(Box<ChainRequest>),
}

impl SubmitError {
    /// The refused request.
    pub fn into_request(self) -> ChainRequest {
        match self {
            SubmitError::QueueFull(request) | SubmitError::Draining(request) => *request,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(r) => write!(f, "queue full, job {} rejected", r.id),
            SubmitError::Draining(r) => write!(f, "service draining, job {} rejected", r.id),
        }
    }
}

/// Everything a finished batch reports.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Successful requests, in submission order.
    pub chains: Vec<ChainOutcome>,
    /// Failed requests, in submission order.
    pub failures: Vec<JobError>,
    /// The aggregate report.
    pub stats: ServiceStats,
}

struct QueuedJob {
    request: Box<ChainRequest>,
    enqueued: Instant,
}

struct WorkerReport {
    worker: usize,
    device: String,
    jobs: usize,
    busy_ms: f64,
}

/// Instrument handles shared by the submission side and every worker.
struct ServiceInstruments {
    registry: Arc<Registry>,
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    /// Queue depth over time — scheduling-dependent, hence timing-flagged.
    queue_depth: Gauge,
    /// High-water queue depth — also scheduling-dependent.
    queue_max_depth: Gauge,
    /// Wall-clock queue wait per job — the "queue" stage of the lifecycle.
    queue_wait: Histogram,
}

impl ServiceInstruments {
    fn new(registry: Arc<Registry>) -> Self {
        let submitted = registry.counter(
            "br_jobs_submitted_total",
            "Jobs accepted into the service queue.",
            &[],
        );
        let completed = registry.counter(
            "br_jobs_completed_total",
            "Jobs that finished successfully.",
            &[],
        );
        let failed = registry.counter("br_jobs_failed_total", "Jobs that failed.", &[]);
        let queue_depth = registry.timing_gauge(
            "br_queue_depth",
            "Jobs waiting for a worker, sampled at push/pop (scheduling-dependent).",
            &[],
        );
        let queue_max_depth = registry.timing_gauge(
            "br_queue_max_depth",
            "Highest queue depth observed (scheduling-dependent).",
            &[],
        );
        let queue_wait = registry.timing_histogram(
            "br_job_queue_wait_ns",
            "Wall-clock nanoseconds a job waited in the queue.",
            &[],
        );
        ServiceInstruments {
            registry,
            submitted,
            completed,
            failed,
            queue_depth,
            queue_max_depth,
            queue_wait,
        }
    }
}

/// A running worker pool. Submit jobs, then [`drain`](Self::drain) to
/// collect all results and the final report.
pub struct SpgemmService {
    queue: Arc<JobQueue<QueuedJob>>,
    cache: Arc<PlanCache>,
    instruments: Arc<ServiceInstruments>,
    workers: Vec<JoinHandle<WorkerReport>>,
    results: mpsc::Receiver<Result<ChainOutcome, JobError>>,
    started: Instant,
    submitted: usize,
}

impl SpgemmService {
    /// Spawns the worker pool and returns a service accepting submissions.
    pub fn start(config: ServiceConfig) -> Self {
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let queue: Arc<JobQueue<QueuedJob>> = Arc::new(match config.queue_capacity {
            Some(capacity) => JobQueue::bounded(capacity),
            None => JobQueue::new(),
        });
        let cache = Arc::new(PlanCache::with_registry(
            config.cache_capacity,
            registry.clone(),
        ));
        let instruments = Arc::new(ServiceInstruments::new(registry.clone()));
        let (tx, rx) = mpsc::channel();
        let workers = config
            .devices
            .into_iter()
            .enumerate()
            .map(|(index, device)| {
                // Built here, not on the worker thread, so the executor's
                // instrument families are registered before `start` returns.
                let exec = Executor::new(
                    index,
                    device,
                    cache.clone(),
                    registry.clone(),
                    config.estimator,
                    config.reorder,
                );
                let queue = queue.clone();
                let instruments = instruments.clone();
                let tx = tx.clone();
                thread::Builder::new()
                    .name(format!("br-service-worker-{index}"))
                    .spawn(move || worker_loop(index, exec, queue, instruments, tx))
                    .expect("failed to spawn service worker")
            })
            .collect();
        SpgemmService {
            queue,
            cache,
            instruments,
            workers,
            results: rx,
            started: Instant::now(),
            submitted: 0,
        }
    }

    /// Enqueues a request; `false` if the service is draining or the
    /// bounded queue is full (see [`try_submit`](Self::try_submit) for the
    /// typed rejection that hands the request back). A request occupies
    /// one queue slot and runs to completion on one worker, step by step.
    pub fn submit(&mut self, request: ChainRequest) -> bool {
        self.try_submit(request).is_ok()
    }

    /// Non-blocking admission into the service queue.
    pub fn try_submit(&mut self, request: ChainRequest) -> Result<(), SubmitError> {
        let registry = self.instruments.registry.clone();
        let _span = registry.span("job/submit");
        let queued = QueuedJob {
            request: Box::new(request),
            enqueued: Instant::now(),
        };
        match self.queue.try_push(queued) {
            Ok(depth) => {
                self.submitted += 1;
                self.instruments.submitted.inc();
                self.instruments.queue_depth.set_u64(depth as u64);
                Ok(())
            }
            Err(PushError::Full(queued)) => Err(SubmitError::QueueFull(queued.request)),
            Err(PushError::Closed(queued)) => Err(SubmitError::Draining(queued.request)),
        }
    }

    /// Shared plan cache (inspectable mid-run).
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The registry holding this service's instruments (and its cache's).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.instruments.registry
    }

    /// Jobs currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Test hook: poison the queue mutex by panicking inside its critical
    /// section, to prove the service keeps draining afterwards.
    #[doc(hidden)]
    pub fn poison_queue_for_test(&self) {
        self.queue.poison_for_test();
    }

    /// Runs a whole batch: submit everything, drain, report. On a bounded
    /// queue (`queue_capacity`), requests refused by admission control
    /// appear in `failures` with a "queue full" message instead of
    /// vanishing.
    pub fn run_chains(config: ServiceConfig, requests: Vec<ChainRequest>) -> BatchOutcome {
        let mut service = Self::start(config);
        let mut rejected = Vec::new();
        for request in requests {
            if let Err(err) = service.try_submit(request) {
                let message = err.to_string();
                let request = err.into_request();
                rejected.push(JobError {
                    id: request.id,
                    label: request.label,
                    message,
                });
            }
        }
        let mut batch = service.drain();
        if !rejected.is_empty() {
            batch.stats.failures += rejected.len();
            batch.failures.extend(rejected);
            batch.failures.sort_by_key(|f| f.id);
        }
        batch
    }

    /// Closes the queue, waits for every worker to finish, and assembles
    /// the batch report.
    pub fn drain(self) -> BatchOutcome {
        let SpgemmService {
            queue,
            cache,
            instruments,
            workers,
            results,
            started,
            submitted,
        } = self;
        queue.close();
        let reports: Vec<WorkerReport> = workers
            .into_iter()
            .map(|h| h.join().expect("service worker panicked"))
            .collect();
        instruments
            .queue_max_depth
            .set_u64(queue.max_depth() as u64);
        let mut chains = Vec::with_capacity(submitted);
        let mut failures = Vec::new();
        while let Ok(done) = results.try_recv() {
            match done {
                Ok(outcome) => chains.push(outcome),
                Err(err) => failures.push(err),
            }
        }
        chains.sort_by_key(|c| c.id);
        failures.sort_by_key(|f| f.id);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let worker_stats = reports
            .into_iter()
            .map(|r| WorkerStats {
                worker: r.worker,
                device: r.device,
                jobs: r.jobs,
                busy_ms: r.busy_ms,
                utilization: if wall_ms > 0.0 {
                    (r.busy_ms / wall_ms).min(1.0)
                } else {
                    0.0
                },
            })
            .collect();
        let stats = ServiceStats::from_outcomes(
            &chains,
            failures.len(),
            wall_ms,
            cache.stats(),
            queue.max_depth(),
            worker_stats,
        );
        BatchOutcome {
            chains,
            failures,
            stats,
        }
    }
}

fn worker_loop(
    index: usize,
    exec: Executor,
    queue: Arc<JobQueue<QueuedJob>>,
    instruments: Arc<ServiceInstruments>,
    tx: mpsc::Sender<Result<ChainOutcome, JobError>>,
) -> WorkerReport {
    let mut jobs = 0usize;
    let mut busy_ms = 0.0f64;
    while let Some(queued) = queue.pop() {
        instruments.queue_depth.set_u64(queue.depth() as u64);
        instruments
            .queue_wait
            .observe(queued.enqueued.elapsed().as_nanos() as u64);
        let queue_ms = queued.enqueued.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let done = exec.run(*queued.request, queue_ms);
        busy_ms += t0.elapsed().as_secs_f64() * 1e3;
        jobs += 1;
        match &done {
            Ok(_) => instruments.completed.inc(),
            Err(_) => instruments.failed.inc(),
        }
        if tx.send(done).is_err() {
            break; // collector is gone; nothing left to report to
        }
    }
    WorkerReport {
        worker: index,
        device: exec.device().to_string(),
        jobs,
        busy_ms,
    }
}
