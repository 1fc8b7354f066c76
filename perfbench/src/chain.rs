//! `chain_batch`: in-process `SpgemmService::run_chains` batches over the
//! canonical chain programs.

use std::sync::Arc;
use std::time::Instant;

use br_gpu_sim::device::DeviceConfig;
use br_service::chain::ChainRequest;
use br_service::service::{BatchOutcome, ServiceConfig, SpgemmService};
use br_sparse::ops::spgemm_gustavson;
use br_sparse::CsrMatrix;
use br_spgemm::context::ProblemSignature;

use crate::layers;
use crate::replay::{self, same_csr, Replayer};
use crate::stats::{self, Metrics};
use crate::trace::Tracer;
use crate::workload::{Workload, CHAIN_CACHE, CHAIN_SETUP_REPS, CHAIN_THREADS, CHAIN_WORKERS};
use crate::RunOutput;

/// Builds the batch's requests from their job lines (the set-up work).
fn build(w: &Workload) -> Result<Vec<ChainRequest>, String> {
    w.chain_specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| replay::chain_from_spec(i as u64, spec))
        .collect()
}

/// What every batch must reproduce: each chain's reference result and
/// the batch's distinct plan keys (its plan-cache misses).
struct Oracle {
    results: Vec<Arc<CsrMatrix<f64>>>,
    steps: usize,
    distinct: usize,
}

fn oracle(requests: &[ChainRequest], inject: bool) -> Result<Oracle, String> {
    let mut results = Vec::with_capacity(requests.len());
    let mut signatures: Vec<ProblemSignature> = Vec::new();
    let mut steps = 0;
    for r in requests {
        let reference = r
            .program
            .execute_reference(&r.inputs)
            .map_err(|e| format!("reference {}: {e}", r.label))?;
        results.push(reference.result);
        // Every step's operand structure, to count distinct plan keys
        // (all requests share one device and configuration).
        let run = r
            .program
            .execute_with(&r.inputs, |_, _, a, b| {
                let sig = ProblemSignature::of(a, b);
                if !signatures.contains(&sig) {
                    signatures.push(sig);
                }
                spgemm_gustavson(a, b).map(|c| (c, ()))
            })
            .map_err(|e| format!("reference {}: {e}", r.label))?;
        steps += run.steps.len();
    }
    if inject {
        let first = results[0].map_values(|v| v + 1.0);
        results[0] = Arc::new(first);
    }
    Ok(Oracle {
        results,
        steps,
        distinct: signatures.len(),
    })
}

fn service_config() -> ServiceConfig {
    ServiceConfig::uniform(DeviceConfig::titan_xp(), CHAIN_WORKERS, CHAIN_CACHE)
}

/// Checks one batch; returns failed chains and one line per problem.
fn check(batch: &BatchOutcome, oracle: &Oracle, requests: &[ChainRequest]) -> (u64, Vec<String>) {
    let mut problems: Vec<String> = batch
        .failures
        .iter()
        .map(|f| format!("chain {} failed: {}", f.label, f.message))
        .collect();
    let mut failed = batch.failures.len() as u64;
    for c in &batch.chains {
        let want = &oracle.results[c.id as usize];
        if !same_csr(&c.result, want) {
            failed += 1;
            problems.push(format!("chain {} differs from execute_reference", c.label));
        }
    }
    if batch.chains.len() + batch.failures.len() != requests.len() {
        failed += 1;
        problems.push(format!(
            "{} chains answered of {}",
            batch.chains.len(),
            requests.len()
        ));
    }
    let hits: usize = batch.chains.iter().map(|c| c.cache_hits()).sum();
    let misses: usize = batch.chains.iter().map(|c| c.cache_misses()).sum();
    let want_misses = oracle.distinct;
    let want_hits = oracle.steps - oracle.distinct;
    if hits != want_hits || misses != want_misses || batch.stats.cache.evictions != 0 {
        failed += 1;
        problems.push(format!(
            "plan cache: {hits} hits / {misses} misses / {} evictions, want {want_hits} / {want_misses} / 0",
            batch.stats.cache.evictions
        ));
    }
    (failed, problems)
}

fn sim_gflops(batch: &BatchOutcome) -> f64 {
    let (mut work, mut time) = (0.0, 0.0);
    for s in batch.chains.iter().flat_map(|c| &c.steps) {
        work += s.gflops * s.total_ms;
        time += s.total_ms;
    }
    if time > 0.0 {
        work / time
    } else {
        0.0
    }
}

fn worker_busy_ratio(batch: &BatchOutcome) -> f64 {
    let w = &batch.stats.workers;
    w.iter().map(|s| s.utilization).sum::<f64>() / w.len().max(1) as f64
}

/// The untraced run: end-to-end metrics.
pub fn run(w: &Workload, seconds: f64, inject: bool) -> Result<RunOutput, String> {
    let mut setups = Vec::with_capacity(CHAIN_SETUP_REPS);
    let mut requests = Vec::new();
    for _ in 0..CHAIN_SETUP_REPS {
        let t0 = Instant::now();
        requests = build(w)?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    let oracle = oracle(&requests, inject)?;

    // Each batch is checked and dropped before the next starts, so the
    // peak resident set is that of one batch.
    let mut failed = 0;
    let mut problems = Vec::new();
    let mut lat = Vec::new();
    let mut busy = Vec::new();
    let mut gflops = None;
    let mut chain_ms = vec![Vec::new(); requests.len()];
    let mut batches = 0;
    let start = Instant::now();
    loop {
        let batch = SpgemmService::run_chains(service_config(), requests.clone());
        let (f, p) = check(&batch, &oracle, &requests);
        failed += f;
        problems.extend(p);
        for c in &batch.chains {
            lat.push(c.host_ms);
            chain_ms[c.id as usize].push(c.host_ms);
        }
        busy.push(worker_busy_ratio(&batch));
        gflops.get_or_insert_with(|| sim_gflops(&batch));
        batches += 1;
        drop(batch);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let peak_rss = stats::peak_rss_mb();
    let attempted = (batches * requests.len()) as u64;
    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&setups), "s");
    m.set("requests_per_s", attempted as f64 / wall, "1/s");
    m.set("latency_p50_ms", stats::percentile(&lat, 0.5), "ms");
    m.set("latency_p90_ms", stats::percentile(&lat, 0.9), "ms");
    m.set(
        "success_rate",
        1.0 - failed as f64 / attempted as f64,
        "ratio",
    );
    m.set("sim_gflops", gflops.unwrap_or(0.0), "GFLOP/s");
    m.set("peak_rss_mb", peak_rss, "MiB");
    let chain_ms: Vec<String> = w
        .chain_specs()
        .iter()
        .zip(&chain_ms)
        .map(|(spec, ms)| format!("\"{spec}\": {}", stats::json_num(stats::median(ms))))
        .collect();
    let detail = format!(
        "{{\"batches\": {}, \"chains\": {attempted}, \"latency_samples\": {}, \"p90_supported\": {}, \
         \"window_s\": {}, \"error_rate\": {}, \"setup_s\": {setups:?}, \"steps_per_batch\": {}, \
         \"distinct_plans\": {}, \"worker_busy_ratio\": {}, \"workers\": {CHAIN_WORKERS}, \
         \"threads_per_worker\": {CHAIN_THREADS}, \"chain_ms\": {{{}}}}}",
        batches,
        lat.len(),
        stats::supports_percentile(lat.len(), 0.9),
        stats::json_num(wall),
        stats::json_num(failed as f64 / attempted as f64),
        oracle.steps,
        oracle.distinct,
        stats::json_num(stats::median(&busy)),
        chain_ms.join(", "),
    );
    Ok(RunOutput {
        attempted,
        failed,
        problems,
        metrics: m,
        detail,
    })
}

/// The traced run: one untraced batch for the service-side numbers, then
/// the same chains replayed untraced, traced, and cross-checked.
pub fn trace(w: &Workload, _seconds: f64, inject: bool) -> Result<(RunOutput, Tracer), String> {
    let requests = build(w)?;
    let oracle = oracle(&requests, inject)?;
    let batch = SpgemmService::run_chains(service_config(), requests.clone());
    let (mut failed, mut problems) = check(&batch, &oracle, &requests);
    let specs = w.chain_specs();
    let n = specs.len();

    let mut plain = Replayer::new(CHAIN_CACHE);
    let mut traced = Replayer::new(CHAIN_CACHE);
    let mut off = Tracer::disabled();
    let mut tracer = Tracer::new();
    let untraced_ns = replay::lockstep(n, |trace, i| {
        let (r, t) = if trace {
            (&mut traced, &mut tracer)
        } else {
            (&mut plain, &mut off)
        };
        replay::chain_request(r, t, i as u64, &specs[i], false).map(drop)
    })?;
    let stats = traced.cache.stats();

    let mut checker = Replayer::new(CHAIN_CACHE);
    let mut off = Tracer::disabled();
    let mut cx = layers::Context::default();
    for (i, spec) in specs.iter().enumerate() {
        match replay::chain_request(&mut checker, &mut off, i as u64, spec, true) {
            Ok(r) => {
                cx.checked += r.steps;
                cx.checked_exec_ns += r.checked_exec_ns;
                cx.replayed_exec_ns += r.replayed_exec_ns;
                if !same_csr(&r.result, &oracle.results[i]) {
                    failed += 1;
                    problems.push(format!(
                        "replayed chain {spec} differs from execute_reference"
                    ));
                }
            }
            Err(e) => {
                failed += 1;
                problems.push(format!("cross-check chain {spec}: {e}"));
            }
        }
    }

    let mut serve_ns = vec![0.0; n];
    for c in &batch.chains {
        serve_ns[c.id as usize] = c.host_ms * 1e6;
    }
    let queue: Vec<f64> = batch.chains.iter().map(|c| c.queue_ms * 1e6).collect();
    cx.requests = n;
    cx.queue_wait_p50_ns = stats::median(&queue);
    cx.serve_ns = serve_ns;
    cx.untraced_ns = untraced_ns;
    cx.worker_busy_ratio = worker_busy_ratio(&batch);
    cx.cache_hits = stats.hits;
    cx.cache_misses = stats.misses;
    cx.cache_evictions = stats.evictions;
    cx.build_ns = traced.build_ns.clone();
    let metrics = layers::metrics(&tracer, &traced.counts, &cx);
    let detail = format!(
        "{{\"replayed\": {n}, \"cross_checked_steps\": {}}}",
        cx.checked
    );
    Ok((
        RunOutput {
            attempted: n as u64,
            failed,
            problems,
            metrics,
            detail,
        },
        tracer,
    ))
}
