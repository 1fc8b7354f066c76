//! Plan hits served from a plan's profile memo must leave the
//! deterministic `br_sim_*` exposition exactly as simulating every hit
//! would have.
//!
//! The simulator records into the process-wide registry, so each side of
//! the comparison runs in a child process of this test binary (selected by
//! an environment variable) and prints its strict exposition; the parent
//! compares the two.

use std::process::Command;
use std::sync::Arc;

use block_reorganizer::classify::precalc_launch;
use block_reorganizer::plan::ReorgPlan;
use block_reorganizer::ReorganizerConfig;
use br_datasets::rmat::{rmat, RmatConfig};
use br_gpu_sim::device::DeviceConfig;
use br_gpu_sim::sim::GpuSimulator;
use br_service::prelude::*;
use br_sparse::CsrMatrix;
use br_spgemm::context::ProblemContext;
use br_spgemm::merge::kway::binned_merge_launches;
use br_spgemm::workspace::Workspace;

const PHASE: &str = "BR_PROFILE_MEMO_PHASE";
const TEST: &str = "memo_hits_export_the_same_sim_metrics_as_simulating_every_hit";
/// Cache hits per side: one fills the memo, the rest are served from it.
const HITS: usize = 5;

fn operand() -> Arc<CsrMatrix<f64>> {
    Arc::new(rmat(RmatConfig::graph500(9, 8, 77)).to_csr())
}

/// `1 + HITS` squares of one structure through a two-worker service: one
/// Cold miss, then `HITS` Cached hits.
fn through_the_service() {
    let a = operand();
    let requests = (0..=HITS as u64)
        .map(|id| ChainRequest::square(id, a.clone()))
        .collect();
    let config = ServiceConfig::uniform(DeviceConfig::titan_xp(), 2, 8);
    let batch = SpgemmService::run_chains(config, requests);
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    let hits: usize = batch.chains.iter().map(|c| c.cache_hits()).sum();
    assert_eq!(hits, HITS);
}

/// The same launches simulated directly: the Cold stream once, then the
/// Cached stream `HITS` times, each from a cold L2.
fn simulating_every_hit() {
    let a = operand();
    let ctx = ProblemContext::from_shared(a.clone(), a).unwrap();
    let device = DeviceConfig::titan_xp();
    let plan = ReorgPlan::build(&ctx, &ReorganizerConfig::default(), &device);
    assert!(plan.permutation.is_none());
    let ws = Workspace::for_context(&ctx);
    let mut cached = vec![plan.expansion_launch(&ctx, &ws).0];
    cached.extend(binned_merge_launches(
        &ctx,
        &ws,
        plan.config.block_size,
        true,
        &plan.bins,
        |r| plan.limit_plan.extra_smem(r),
    ));
    let mut cold = vec![precalc_launch(&ctx, &ws)];
    cold.extend(cached.iter().cloned());
    let sim = GpuSimulator::new(device);
    sim.run_sequence(&cold, &ws.layout);
    for _ in 0..HITS {
        sim.run_sequence(&cached, &ws.layout);
    }
}

/// Runs one side in a child process and returns its strict `br_sim_*`
/// exposition lines.
fn sim_lines(phase: &str) -> Vec<String> {
    let out = Command::new(std::env::current_exe().unwrap())
        .args([TEST, "--exact", "--nocapture", "--test-threads", "1"])
        .env(PHASE, phase)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{phase} child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("EXPORT "))
        .map(str::to_string)
        .collect()
}

#[test]
fn memo_hits_export_the_same_sim_metrics_as_simulating_every_hit() {
    if let Ok(phase) = std::env::var(PHASE) {
        block_reorganizer::memo::register_memo_instruments();
        match phase.as_str() {
            "service" => through_the_service(),
            "sequence" => simulating_every_hit(),
            other => panic!("unknown phase {other}"),
        }
        for line in br_obs::global().render_prometheus(false).lines() {
            if line.contains("br_sim_") {
                println!("EXPORT {line}");
            }
        }
        return;
    }
    let is_memo = |l: &&String| l.contains("br_sim_profile_memo_");
    let split = |lines: Vec<String>| -> (Vec<String>, Vec<String>) {
        lines.into_iter().partition(|l| is_memo(&l))
    };
    let (service_memo, service) = split(sim_lines("service"));
    let (sequence_memo, sequence) = split(sim_lines("sequence"));
    assert!(
        service
            .iter()
            .any(|l| l.starts_with("br_sim_kernel_launches_total")),
        "{service:#?}"
    );
    assert!(
        service
            .iter()
            .any(|l| l.starts_with("br_sim_makespan_cycles")),
        "{service:#?}"
    );
    assert_eq!(service, sequence, "memo hits must replay every profile");
    let hits = format!("br_sim_profile_memo_hits_total {}", HITS - 1);
    assert!(service_memo.contains(&hits), "{service_memo:#?}");
    assert!(
        service_memo.contains(&"br_sim_profile_memo_fills_total 1".to_string()),
        "{service_memo:#?}"
    );
    assert!(
        sequence_memo.contains(&"br_sim_profile_memo_hits_total 0".to_string()),
        "{sequence_memo:#?}"
    );
}
