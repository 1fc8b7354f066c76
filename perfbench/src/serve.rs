//! `serve_hot` and `serve_cold`: a closed loop against an in-process
//! `NetServer` on loopback.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use br_gpu_sim::device::DeviceConfig;
use br_net::client::{NetClient, ResponseSummary};
use br_net::frame::{Frame, Lane};
use br_net::server::{NetServer, ServeReport, ServerConfig};
use br_obs::Registry;
use br_service::job::parse_job_file;
use br_sparse::ops::spgemm_gustavson;

use crate::layers::{self, counter, histogram_p50};
use crate::replay::{self, Replayer};
use crate::stats::{self, Metrics};
use crate::trace::Tracer;
use crate::workload::{Kind, Workload, SERVE_CONNECTIONS, SERVE_WORKERS, SETUP_REPS};
use crate::RunOutput;

/// Request ids of warm-up submissions start here, apart from timed ones.
const WARMUP_ID_BASE: u64 = 1 << 40;

/// How one request ended, as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A `Result` frame.
    Result {
        /// Whether the plan came from the cache.
        cache_hit: bool,
        /// Simulated latency, ms.
        total_ms: f64,
        /// Simulated GFLOP/s.
        gflops: f64,
        /// `nnz(C)`.
        nnz_c: u64,
    },
    /// Shed, rejected, or a protocol failure.
    Failed(String),
}

/// One completed request of a closed loop.
#[derive(Debug, Clone)]
pub struct Response {
    /// Position in the workload's stream.
    pub index: usize,
    /// Client-observed time from writing `Submit` to reading the answer, s.
    pub latency_s: f64,
    /// What came back.
    pub outcome: Outcome,
}

/// When a closed loop stops issuing requests.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After exactly this many requests.
    Count(usize),
    /// Once `seconds` have passed and at least `min` requests were issued.
    Timed { seconds: f64, min: usize },
}

/// A running server with its connected clients.
struct Serving {
    handle: JoinHandle<ServeReport>,
    clients: Vec<NetClient>,
    registry: Arc<Registry>,
}

/// Binds a server, connects the clients, and runs the warm-up pass.
fn start(w: &Workload) -> Result<(Serving, Vec<Response>), String> {
    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        devices: vec![DeviceConfig::titan_xp(); SERVE_WORKERS],
        registry: Some(registry.clone()),
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = thread::spawn(move || server.run());
    let mut clients = Vec::with_capacity(SERVE_CONNECTIONS);
    for c in 0..SERVE_CONNECTIONS {
        clients.push(
            NetClient::connect(&addr, &format!("perfbench-{c}"))
                .map_err(|e| format!("connect: {e}"))?,
        );
    }
    let warm = w.warmup_specs();
    let (responses, _) = closed_loop(
        &mut clients,
        Stop::Count(warm.len()),
        &|i| warm[i].clone(),
        WARMUP_ID_BASE,
    );
    Ok((
        Serving {
            handle,
            clients,
            registry,
        },
        responses,
    ))
}

/// Drains the server and waits for it to exit.
fn stop(mut s: Serving) -> Result<ServeReport, String> {
    for c in s.clients.iter_mut().skip(1) {
        c.goodbye().map_err(|e| format!("goodbye: {e}"))?;
    }
    s.clients[0]
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    let mut summary = ResponseSummary::default();
    for c in &mut s.clients {
        c.drain_to_eof(&mut summary)
            .map_err(|e| format!("drain: {e}"))?;
    }
    s.handle
        .join()
        .map_err(|_| "server thread panicked".to_string())
}

/// Runs one closed loop: every client keeps one `Submit` outstanding and
/// takes the next stream index as soon as its answer arrives. Returns the
/// responses in stream order (always a prefix of the stream) and the wall
/// time from start to the last answer, s.
fn closed_loop(
    clients: &mut [NetClient],
    stop: Stop,
    spec_of: &(dyn Fn(usize) -> String + Sync),
    id_base: u64,
) -> (Vec<Response>, f64) {
    let next = Mutex::new((0usize, false));
    let start = Instant::now();
    let per_client: Vec<(Vec<Response>, f64)> = thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = {
                            let mut g = next.lock().expect("dispatch lock");
                            if g.1 {
                                break;
                            }
                            let done = match stop {
                                Stop::Count(n) => g.0 >= n,
                                Stop::Timed { seconds, min } => {
                                    g.0 >= min && start.elapsed().as_secs_f64() >= seconds
                                }
                            };
                            if done {
                                g.1 = true;
                                break;
                            }
                            g.0 += 1;
                            g.0 - 1
                        };
                        let spec = spec_of(i);
                        let id = id_base + i as u64;
                        let sent = Instant::now();
                        let outcome = exchange(client, id, &spec);
                        let latency_s = sent.elapsed().as_secs_f64();
                        let broken =
                            matches!(&outcome, Outcome::Failed(m) if m.starts_with("protocol"));
                        out.push(Response {
                            index: i,
                            latency_s,
                            outcome,
                        });
                        if broken {
                            break;
                        }
                    }
                    (out, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = per_client.iter().map(|(_, end)| *end).fold(0.0, f64::max);
    let mut all: Vec<Response> = per_client.into_iter().flat_map(|(v, _)| v).collect();
    all.sort_by_key(|r| r.index);
    (all, wall)
}

/// Sends one `Submit` and reads its answer.
fn exchange(client: &mut NetClient, id: u64, spec: &str) -> Outcome {
    if let Err(e) = client.submit(id, Lane::Interactive, 0, spec) {
        return Outcome::Failed(format!("protocol: {e}"));
    }
    match client.next_response() {
        Ok(Some(Frame::Result {
            request_id,
            cache_hit,
            total_ms,
            gflops,
            nnz_c,
            ..
        })) if request_id == id => Outcome::Result {
            cache_hit,
            total_ms,
            gflops,
            nnz_c,
        },
        Ok(Some(Frame::Shed { .. })) => Outcome::Failed("shed".to_string()),
        Ok(Some(Frame::Reject { code, message, .. })) => {
            Outcome::Failed(format!("rejected ({}): {message}", code.name()))
        }
        Ok(Some(other)) => Outcome::Failed(format!("protocol: unexpected {} frame", other.name())),
        Ok(None) => Outcome::Failed("protocol: server closed".to_string()),
        Err(e) => Outcome::Failed(format!("protocol: {e}")),
    }
}

/// `nnz(A·B)` of a job spec from the sequential Gustavson oracle.
fn oracle_nnz(spec: &str) -> Result<u64, String> {
    let specs = parse_job_file(spec)?;
    let one = specs.first().ok_or("empty spec")?;
    let a = one.source.load()?;
    let b = match &one.pair {
        Some(src) => src.load()?,
        None => a.clone(),
    };
    Ok(spgemm_gustavson(&a, &b).map_err(|e| e.to_string())?.nnz() as u64)
}

/// Oracles of the `serve_hot` pool, computed before the timed window;
/// `serve_cold` oracles are computed after it, per request.
fn pool_oracles(w: &Workload) -> Result<HashMap<String, u64>, String> {
    let mut oracle = HashMap::new();
    if w.kind == Kind::ServeHot {
        for spec in w.warmup_specs() {
            let n = oracle_nnz(&spec)?;
            oracle.insert(spec, n);
        }
    }
    Ok(oracle)
}

/// Plan-cache counters read off the server's registry.
#[derive(Debug, Clone, Copy, Default)]
struct CacheCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheCounters {
    fn read(reg: &Registry) -> Self {
        CacheCounters {
            hits: counter(reg, "br_cache_hits_total"),
            misses: counter(reg, "br_cache_misses_total"),
            evictions: counter(reg, "br_cache_evictions_total"),
        }
    }

    fn since(self, before: CacheCounters) -> Self {
        CacheCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
        }
    }
}

/// Checks every response against the oracle and the pure-function cache
/// behaviour; returns the failed request count and one line per problem.
fn check(
    w: &Workload,
    warm: &[Response],
    responses: &[Response],
    cache: CacheCounters,
    mut oracle: HashMap<String, u64>,
    inject: bool,
) -> Result<(u64, Vec<String>), String> {
    let hot = w.kind == Kind::ServeHot;
    let mut problems = Vec::new();
    let mut failed = 0;
    for r in warm {
        if !matches!(
            r.outcome,
            Outcome::Result {
                cache_hit: false,
                ..
            }
        ) {
            failed += 1;
            problems.push(format!("warm-up request {}: {:?}", r.index, r.outcome));
        }
    }
    let mut seen: HashMap<String, (u64, u64)> = HashMap::new();
    for r in responses {
        let spec = w.spec(r.index);
        let problem = match &r.outcome {
            Outcome::Failed(m) => Some(m.clone()),
            Outcome::Result {
                cache_hit,
                total_ms,
                gflops,
                nnz_c,
            } => {
                let want = match oracle.get(&spec) {
                    Some(&n) => n,
                    None => {
                        let n = oracle_nnz(&spec)?;
                        oracle.insert(spec.clone(), n);
                        n
                    }
                };
                let want = want + u64::from(inject && r.index == 0);
                let bits = (total_ms.to_bits(), gflops.to_bits());
                if *cache_hit != hot {
                    Some(format!("cache_hit={cache_hit}"))
                } else if *nnz_c != want {
                    Some(format!("nnz_c {nnz_c} != oracle {want}"))
                } else if *seen.entry(spec.clone()).or_insert(bits) != bits {
                    Some("simulated time differs between hits of one structure".to_string())
                } else {
                    None
                }
            }
        };
        if let Some(p) = problem {
            failed += 1;
            problems.push(format!("request {} ({spec}): {p}", r.index));
        }
    }
    let n = responses.len() as u64;
    let (want_hits, want_misses) = if hot { (n, 0) } else { (0, n) };
    if cache.hits != want_hits || cache.misses != want_misses {
        failed += 1;
        problems.push(format!(
            "plan cache: {} hits / {} misses in the window, want {want_hits} / {want_misses}",
            cache.hits, cache.misses
        ));
    }
    if hot && cache.evictions != 0 {
        failed += 1;
        problems.push(format!("plan cache evicted {} plans", cache.evictions));
    }
    if !hot {
        let capacity = ServerConfig::default().cache_capacity as u64;
        let warm_n = warm.len() as u64;
        let want = (warm_n + n).saturating_sub(capacity) - warm_n.saturating_sub(capacity);
        if cache.evictions != want {
            failed += 1;
            problems.push(format!(
                "plan cache evicted {} plans, want {want}",
                cache.evictions
            ));
        }
    }
    Ok((failed, problems))
}

/// Σ flops / Σ simulated seconds over the first `k` requests of the stream.
fn sim_gflops(responses: &[Response], k: usize) -> f64 {
    let (mut work, mut time) = (0.0, 0.0);
    for r in responses.iter().take(k) {
        if let Outcome::Result {
            total_ms, gflops, ..
        } = r.outcome
        {
            work += gflops * total_ms;
            time += total_ms;
        }
    }
    if time > 0.0 {
        work / time
    } else {
        0.0
    }
}

fn latencies_ms(responses: &[Response]) -> Vec<f64> {
    responses.iter().map(|r| r.latency_s * 1e3).collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(w: &Workload, seconds: f64, inject: bool) -> Result<RunOutput, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut miss_ms: HashMap<String, Vec<f64>> = HashMap::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (serving, warm) = start(w)?;
        setups.push(t0.elapsed().as_secs_f64());
        for r in &warm {
            let spec = w.warmup_specs()[r.index].clone();
            miss_ms.entry(spec).or_default().push(r.latency_s * 1e3);
        }
        if rep + 1 < SETUP_REPS {
            stop(serving)?;
        } else {
            kept = Some((serving, warm));
        }
    }
    let (mut serving, warm) = kept.expect("at least one set-up");
    let oracle = pool_oracles(w)?;
    let before = CacheCounters::read(&serving.registry);
    let (responses, wall) = closed_loop(
        &mut serving.clients,
        Stop::Timed {
            seconds,
            min: w.min_requests(),
        },
        &|i| w.spec(i),
        0,
    );
    let cache = CacheCounters::read(&serving.registry).since(before);
    let report = stop(serving)?;
    let peak_rss = stats::peak_rss_mb();
    let (failed, problems) = check(w, &warm, &responses, cache, oracle, inject)?;

    let lat = latencies_ms(&responses);
    let n = responses.len();
    let attempted = n as u64;
    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&setups), "s");
    m.set("requests_per_s", n as f64 / wall, "1/s");
    m.set("latency_p50_ms", stats::percentile(&lat, 0.5), "ms");
    m.set("latency_p90_ms", stats::percentile(&lat, 0.9), "ms");
    m.set(
        "success_rate",
        1.0 - failed as f64 / attempted as f64,
        "ratio",
    );
    m.set(
        "sim_gflops",
        sim_gflops(&responses, w.min_requests()),
        "GFLOP/s",
    );
    m.set("peak_rss_mb", peak_rss, "MiB");
    // Per pool structure: p50 client latency of its warm-up misses (one
    // per set-up) next to that of its timed hits.
    let mut hit_ms: HashMap<String, Vec<f64>> = HashMap::new();
    for r in &responses {
        hit_ms
            .entry(w.spec(r.index))
            .or_default()
            .push(r.latency_s * 1e3);
    }
    let miss_vs_hit: Vec<String> = w
        .warmup_specs()
        .iter()
        .filter_map(|spec| {
            let hits = hit_ms.get(spec)?;
            Some(format!(
                "\"{spec}\": [{}, {}]",
                stats::json_num(stats::median(&miss_ms[spec])),
                stats::json_num(stats::median(hits))
            ))
        })
        .collect();
    let detail = format!(
        "{{\"requests\": {n}, \"latency_samples\": {n}, \"p90_supported\": {}, \
         \"window_s\": {}, \"error_rate\": {}, \"setup_s\": {:?}, \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}, \
         \"server\": {{\"requests\": {}, \"results\": {}, \"shed\": {}, \"rejected\": {}, \"protocol_errors\": {}}}, \
         \"workers\": {SERVE_WORKERS}, \"threads_per_worker\": {}, \"connections\": {SERVE_CONNECTIONS}, \
         \"miss_vs_hit_p50_ms\": {{{}}}}}",
        stats::supports_percentile(n, 0.9),
        stats::json_num(wall),
        stats::json_num(failed as f64 / attempted as f64),
        setups,
        cache.hits,
        cache.misses,
        cache.evictions,
        report.requests,
        report.results,
        report.shed,
        report.quota_rejected + report.other_rejected,
        report.protocol_errors,
        crate::workload::SERVE_THREADS,
        miss_vs_hit.join(", "),
    );
    Ok(RunOutput {
        attempted,
        failed,
        problems,
        metrics: m,
        detail,
    })
}

/// The traced run: per-layer metrics from an in-process replay of the
/// stream a (shorter) untraced serving window completed.
pub fn trace(w: &Workload, seconds: f64, inject: bool) -> Result<(RunOutput, Tracer), String> {
    let (mut serving, warm) = start(w)?;
    let before = CacheCounters::read(&serving.registry);
    let (responses, wall) = closed_loop(
        &mut serving.clients,
        Stop::Timed {
            seconds: seconds * 0.4,
            min: 20.min(w.min_requests()),
        },
        &|i| w.spec(i),
        0,
    );
    let cache = CacheCounters::read(&serving.registry).since(before);
    let queue_wait_p50_ns = histogram_p50(&serving.registry, "br_net_queue_wait_ns");
    stop(serving)?;
    let (mut failed, mut problems) = check(w, &warm, &responses, cache, pool_oracles(w)?, inject)?;
    let n = responses.len();
    let specs: Vec<String> = (0..n).map(|i| w.spec(i)).collect();
    let capacity = ServerConfig::default().cache_capacity;
    let warm_specs = w.warmup_specs();
    // Each replayer plans the warm-up structures first; their walls are
    // the replay's cost of a miss on those structures.
    let mut miss_ns: Vec<Vec<f64>> = vec![Vec::new(); warm_specs.len()];
    let mut warmed = |r: &mut Replayer| -> Result<(), String> {
        let mut off = Tracer::disabled();
        for (j, spec) in warm_specs.iter().enumerate() {
            let t0 = Instant::now();
            replay::serve_request(r, &mut off, WARMUP_ID_BASE + j as u64, spec)?;
            miss_ns[j].push(t0.elapsed().as_nanos() as f64);
        }
        r.counts = Default::default();
        Ok(())
    };

    let mut plain = Replayer::new(capacity);
    warmed(&mut plain)?;
    let mut traced = Replayer::new(capacity);
    warmed(&mut traced)?;
    let stats0 = traced.cache.stats();
    let mut off = Tracer::disabled();
    let mut tracer = Tracer::new();
    let untraced_ns = replay::lockstep(n, |trace, i| {
        let (r, t) = if trace {
            (&mut traced, &mut tracer)
        } else {
            (&mut plain, &mut off)
        };
        replay::serve_request(r, t, i as u64, &specs[i]).map(drop)
    })?;
    let stats1 = traced.cache.stats();

    // Cross-check every distinct request against execute_with_scratch,
    // in stream order so each sees the cache state (and mode) it saw above.
    let mut checker = Replayer::new(capacity);
    warmed(&mut checker)?;
    let mut off = Tracer::disabled();
    let mut cx = layers::Context::default();
    let mut done: Vec<&String> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let step = replay::serve_request(&mut checker, &mut off, i as u64, spec)?;
        if done.contains(&spec) {
            continue;
        }
        done.push(spec);
        match checker.cross_check(&step) {
            Ok(ns) => {
                cx.checked += 1;
                cx.checked_exec_ns += ns;
                cx.replayed_exec_ns += step.execute_ns;
            }
            Err(e) => {
                failed += 1;
                problems.push(format!("cross-check request {i} ({spec}): {e}"));
            }
        }
    }

    let lat = latencies_ms(&responses);
    cx.requests = n;
    cx.queue_wait_p50_ns = queue_wait_p50_ns;
    cx.serve_ns = lat.iter().map(|ms| ms * 1e6).collect();
    cx.worker_busy_ratio = layers::worker_ns(&tracer) / 1e9 / (SERVE_WORKERS as f64 * wall);
    cx.untraced_ns = untraced_ns;
    cx.cache_hits = stats1.hits - stats0.hits;
    cx.cache_misses = stats1.misses - stats0.misses;
    cx.cache_evictions = stats1.evictions - stats0.evictions;
    cx.build_ns = traced.build_ns.clone();
    let metrics = layers::metrics(&tracer, &traced.counts, &cx);
    // Replay cost of a miss vs a hit on the same structure (serve_hot).
    let miss_vs_hit: Vec<String> = warm_specs
        .iter()
        .zip(&miss_ns)
        .filter_map(|(spec, miss)| {
            let hits: Vec<f64> = (0..n)
                .filter(|&i| &specs[i] == spec)
                .map(|i| cx.untraced_ns[i])
                .collect();
            (!hits.is_empty()).then(|| {
                format!(
                    "\"{spec}\": [{}, {}]",
                    stats::json_num(stats::median(miss) / 1e6),
                    stats::json_num(stats::median(&hits) / 1e6)
                )
            })
        })
        .collect();
    let detail = format!(
        "{{\"replayed\": {n}, \"cross_checked\": {}, \"serve_window_s\": {}, \
         \"replay_miss_vs_hit_ms\": {{{}}}}}",
        cx.checked,
        stats::json_num(wall),
        miss_vs_hit.join(", ")
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
