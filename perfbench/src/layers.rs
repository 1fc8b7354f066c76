//! Per-layer metrics of a traced replay.

use br_obs::{Registry, SampleValue};

use crate::replay::Counts;
use crate::stats::Metrics;
use crate::trace::Tracer;

/// What a traced run measured besides the traced replay itself.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// Requests (or chains) in the replayed stream.
    pub requests: usize,
    /// p50 of the wall time each request waited in a queue, ns.
    pub queue_wait_p50_ns: f64,
    /// Per-request latency of the untraced serving path, ns, in stream
    /// order.
    pub serve_ns: Vec<f64>,
    /// Per-request wall of the untraced replay, ns, in stream order.
    pub untraced_ns: Vec<f64>,
    /// Share of the serving window the workers were busy.
    pub worker_busy_ratio: f64,
    /// Cache hits and misses during the traced replay.
    pub cache_hits: u64,
    /// Cache misses during the traced replay.
    pub cache_misses: u64,
    /// Evictions during the traced replay.
    pub cache_evictions: u64,
    /// Wall time of every plan build in the traced replay, warm-up
    /// included, ns.
    pub build_ns: Vec<u64>,
    /// Summed `execute_with_scratch` wall of the cross-checked requests.
    pub checked_exec_ns: u64,
    /// Summed replayed-execute wall of the same requests.
    pub replayed_exec_ns: u64,
    /// Requests (or steps) the cross-check covered.
    pub checked: usize,
}

/// Every per-layer metric, from the traced replay's spans and counts.
pub fn metrics(t: &Tracer, counts: &Counts, cx: &Context) -> Metrics {
    let totals = t.totals();
    let n = cx.requests.max(1) as f64;
    let total = |name: &str| totals.get(name).map_or(0, |l| l.total_ns) as f64;
    let self_ns = |name: &str| totals.get(name).map_or(0, |l| l.self_ns) as f64;
    let per_req_ms = |ns: f64| ns / n / 1e6;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let untraced: f64 = cx.untraced_ns.iter().sum();

    let mut m = Metrics::default();
    m.set(
        "net.frame_codec_us",
        total("net.frame_codec") / n / 1e3,
        "us",
    );
    m.set("net.queue_wait_ms", cx.queue_wait_p50_ns / 1e6, "ms");
    // Paired by request: the serving path's latency minus the replay's
    // wall for the same request.
    let overhead: Vec<f64> = cx
        .serve_ns
        .iter()
        .zip(&cx.untraced_ns)
        .map(|(s, r)| (s - r) / 1e6)
        .collect();
    m.set("net.overhead_ms", crate::stats::median(&overhead), "ms");
    m.set(
        "datasets.materialize_ms",
        per_req_ms(total("datasets.materialize")),
        "ms",
    );
    m.set(
        "spgemm.context_ms",
        per_req_ms(total("spgemm.context")),
        "ms",
    );
    m.set(
        "service.cache_hit_ratio",
        ratio(
            cx.cache_hits as f64,
            (cx.cache_hits + cx.cache_misses) as f64,
        ),
        "ratio",
    );
    m.set(
        "service.cache_evictions",
        cx.cache_evictions as f64,
        "count",
    );
    m.set(
        "service.plan_lookup_ms",
        per_req_ms(self_ns("service.plan_lookup")),
        "ms",
    );
    let builds: u64 = cx.build_ns.iter().sum();
    m.set(
        "core.plan_build_ms",
        ratio(builds as f64, cx.build_ns.len() as f64) / 1e6,
        "ms",
    );
    m.set("core.plans_built", counts.plans_built as f64, "count");
    m.set(
        "core.trace_build_ms",
        per_req_ms(total("core.trace_build")),
        "ms",
    );
    m.set(
        "gpu_sim.simulate_ms",
        per_req_ms(total("gpu_sim.simulate")),
        "ms",
    );
    m.set(
        "gpu_sim.l2_transactions",
        counts.l2_transactions as f64 / n,
        "count",
    );
    m.set("gpu_sim.blocks", counts.blocks as f64 / n, "count");
    m.set(
        "gpu_sim.ns_per_l2_txn",
        ratio(total("gpu_sim.simulate"), counts.l2_transactions as f64),
        "ns",
    );
    m.set(
        "gpu_sim.l2_hit_rate",
        ratio(counts.l2_hits as f64, counts.l2_accesses as f64),
        "ratio",
    );
    m.set(
        "spgemm.numeric_ms",
        per_req_ms(total("spgemm.numeric")),
        "ms",
    );
    m.set("spgemm.products", counts.products as f64 / n, "count");
    m.set(
        "spgemm.ns_per_product",
        ratio(total("spgemm.numeric"), counts.products as f64),
        "ns",
    );
    m.set(
        "spgemm.heavy_rows_share",
        ratio(counts.heavy_rows as f64, counts.rows as f64),
        "ratio",
    );
    m.set(
        "workloads.postop_ms",
        per_req_ms(self_ns("workloads.chain")),
        "ms",
    );
    m.set(
        "service.execute_ms",
        ratio(cx.checked_exec_ns as f64, cx.checked as f64) / 1e6,
        "ms",
    );
    m.set(
        "service.replay_residual_pct",
        100.0
            * ratio(
                cx.checked_exec_ns as f64 - cx.replayed_exec_ns as f64,
                cx.checked_exec_ns as f64,
            ),
        "%",
    );
    m.set("service.worker_busy_ratio", cx.worker_busy_ratio, "ratio");
    m.set(
        "obs.trace_overhead_pct",
        100.0 * ratio(total("request") - untraced, untraced),
        "%",
    );
    m.set("replay.request_ms", per_req_ms(total("request")), "ms");
    m.set(
        "replay.unattributed_ms",
        per_req_ms(self_ns("request")),
        "ms",
    );
    m
}

/// Wall time of the work a serving worker does per request (context,
/// plan lookup, execute), summed over the traced replay, ns.
pub fn worker_ns(t: &Tracer) -> f64 {
    let totals = t.totals();
    ["spgemm.context", "service.plan_lookup", "service.execute"]
        .iter()
        .map(|name| totals.get(name).map_or(0, |l| l.total_ns) as f64)
        .sum()
}

/// Sum of every sample of counter family `name`.
pub fn counter(reg: &Registry, name: &str) -> u64 {
    reg.snapshot()
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.samples)
        .map(|(_, v)| match v {
            SampleValue::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

/// p50 of histogram family `name` across its label sets, interpolated
/// linearly inside the power-of-two bucket that holds it; 0 when empty.
pub fn histogram_p50(reg: &Registry, name: &str) -> f64 {
    let mut bounds: Vec<u64> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for family in reg.snapshot().iter().filter(|f| f.name == name) {
        for (_, v) in &family.samples {
            if let SampleValue::Histogram {
                bounds: b,
                counts: c,
                ..
            } = v
            {
                if counts.is_empty() {
                    bounds = b.clone();
                    counts = vec![0; c.len()];
                }
                for (acc, x) in counts.iter_mut().zip(c) {
                    *acc += x;
                }
            }
        }
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let half = total as f64 / 2.0;
    let mut below = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if (below + c) as f64 >= half && c > 0 {
            let lo = if i == 0 { 0 } else { bounds[i - 1] } as f64;
            let hi = bounds
                .get(i)
                .copied()
                .unwrap_or(bounds[bounds.len() - 1] * 2) as f64;
            return lo + (hi - lo) * (half - below as f64) / c as f64;
        }
        below += c;
    }
    0.0
}
