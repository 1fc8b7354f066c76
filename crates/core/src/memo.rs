//! [`ProfileMemo`] — a plan's [`PlanMode::Cached`] simulation, computed
//! once and replayed on every later cache hit.
//!
//! [`GpuSimulator::run_sequence`] starts every execution from a cold L2,
//! and every launch builder reads only the plan and the operands'
//! *structure* (element widths are constants; no builder reads a value).
//! The kernel profiles of a Cached execution are therefore a pure function
//! of the plan and the device. The memo stores them, together with the
//! [`ReorgStats`] of the expansion launch, the first time a plan executes
//! Cached; every later Cached execution on the same device skips the
//! workspace layout, all launch builders and the simulator, and replays
//! the stored profiles into the `br_sim_*` families instead.
//!
//! * **Only Cached fills or reads it.** A Cold execution's stream starts
//!   with the precalculation launch, whose traffic leaves the L2 warm for
//!   the launches after it, so its profiles are not the Cached ones.
//! * **Device guard.** The memo records the [`DeviceConfig`] it was
//!   simulated on. An execution on any other configuration (even one with
//!   the same `name`) simulates afresh and leaves the memo untouched.
//! * **Plan guard.** The memo also records a `fingerprint` of every plan
//!   field the launch builders read (method, config, classification,
//!   split / gather / limit plans, bins, permutation). Those fields are
//!   public, so a plan may be edited after it ran; an execution whose
//!   fingerprint differs simulates afresh and leaves the memo untouched.
//! * **Value semantics.** The memo is invisible to the plan's equality and
//!   serialized form: plans compare equal whether or not it is filled, a
//!   serialized plan carries `null` in its place, and a deserialized or
//!   cloned plan starts empty (a clone is a new value whose public fields
//!   may be edited before it first runs).
//!
//! [`PlanMode::Cached`]: crate::plan::PlanMode::Cached

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use br_gpu_sim::device::DeviceConfig;
use br_gpu_sim::profiler::KernelProfile;
use br_gpu_sim::sim::GpuSimulator;
use br_obs::Counter;
use serde::{Deserialize, Error, Serialize, Value};

use crate::pass::ReorgStats;

/// Once-filled store of one plan's Cached profiles; see the module docs.
#[derive(Default)]
pub struct ProfileMemo(OnceLock<CachedProfiles>);

/// What a Cached execution simulates, and the device and plan
/// fingerprint it simulated under.
struct CachedProfiles {
    device: DeviceConfig,
    key: u64,
    profiles: Vec<KernelProfile>,
    stats: ReorgStats,
}

impl ProfileMemo {
    /// The Cached profiles and stats of this plan, whose launch fields
    /// fingerprint to `key`, on `sim`'s device.
    ///
    /// The first call fills the memo by running `simulate`; concurrent
    /// first calls wait on that one simulation. Later calls with the same
    /// device and key replay the stored profiles into the global registry
    /// (so `br_sim_*` counts them as launched) without simulating. Calls
    /// on a different device or with a different key run `simulate` and
    /// store nothing.
    pub(crate) fn serve(
        &self,
        sim: &GpuSimulator,
        key: u64,
        simulate: impl FnOnce() -> (Vec<KernelProfile>, ReorgStats),
    ) -> (Vec<KernelProfile>, ReorgStats) {
        let mut simulate = Some(simulate);
        let mut filled = false;
        let memo = self.0.get_or_init(|| {
            filled = true;
            let (profiles, stats) = (simulate.take().expect("fill runs once"))();
            CachedProfiles {
                device: sim.device().clone(),
                key,
                profiles,
                stats,
            }
        });
        if filled {
            memo_instruments().fills.inc();
        } else if memo.key == key && memo.device == *sim.device() {
            memo_instruments().hits.inc();
            GpuSimulator::record_profiles(&memo.profiles);
        } else {
            return (simulate.take().expect("not consumed by the fill"))();
        }
        (memo.profiles.clone(), memo.stats)
    }

    /// The device the memo was filled on, if any.
    #[cfg(test)]
    pub(crate) fn device(&self) -> Option<&DeviceConfig> {
        self.0.get().map(|m| &m.device)
    }
}

impl Clone for ProfileMemo {
    /// A cloned plan starts with an empty memo.
    fn clone(&self) -> Self {
        ProfileMemo::default()
    }
}

impl PartialEq for ProfileMemo {
    /// A memo never distinguishes two plans.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for ProfileMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProfileMemo").finish_non_exhaustive()
    }
}

impl Serialize for ProfileMemo {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<'de> Deserialize<'de> for ProfileMemo {
    fn from_value(_: &Value) -> Result<Self, Error> {
        Ok(ProfileMemo::default())
    }
}

/// A 64-bit hash of `parts`' serialized values, the memo's plan key.
/// Deterministic within a build (SipHash with fixed keys); floats hash by
/// their bits.
pub(crate) fn fingerprint(parts: &[&dyn Serialize]) -> u64 {
    fn feed(v: &Value, h: &mut DefaultHasher) {
        match v {
            Value::Null => 0u8.hash(h),
            Value::Bool(b) => (1u8, b).hash(h),
            Value::I64(x) => (2u8, x).hash(h),
            Value::U64(x) => (3u8, x).hash(h),
            Value::F64(x) => (4u8, x.to_bits()).hash(h),
            Value::Str(s) => (5u8, s).hash(h),
            Value::Seq(xs) => {
                (6u8, xs.len()).hash(h);
                xs.iter().for_each(|x| feed(x, h));
            }
            Value::Map(entries) => {
                (7u8, entries.len()).hash(h);
                for (k, x) in entries {
                    k.hash(h);
                    feed(x, h);
                }
            }
        }
    }
    let mut h = DefaultHasher::new();
    for part in parts {
        feed(&part.to_value(), &mut h);
    }
    h.finish()
}

/// Handles to the `br_sim_profile_memo_*` counters.
struct MemoInstruments {
    hits: Counter,
    fills: Counter,
}

/// Both counts are deterministic: a fill happens once per plan value
/// whose first Cached execution ran on its own device, and every later
/// Cached execution of it is a hit. Under the single-flight plan cache
/// that is one fill per cached plan that was hit, and the hits are the
/// remaining cache hits — pure functions of the job multiset, like the
/// cache counters themselves.
fn memo_instruments() -> &'static MemoInstruments {
    static INSTRUMENTS: OnceLock<MemoInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let reg = br_obs::global();
        MemoInstruments {
            hits: reg.counter(
                "br_sim_profile_memo_hits_total",
                "Cached plan executions served from the plan's profile memo (no simulation).",
                &[],
            ),
            fills: reg.counter(
                "br_sim_profile_memo_fills_total",
                "Cached plan executions that simulated and filled the plan's profile memo.",
                &[],
            ),
        }
    })
}

/// Pre-registers both `br_sim_profile_memo_*` counters at zero, so metric
/// exports carry them whether or not any plan executed Cached.
pub fn register_memo_instruments() {
    let _ = memo_instruments();
}

#[cfg(test)]
mod tests {
    use crate::plan::{PlanMode, ReorgPlan};
    use crate::reorder::ReorderStrategy;
    use crate::{ReorganizerConfig, ReorganizerRun};
    use br_datasets::chung_lu::{chung_lu, ChungLuConfig};
    use br_gpu_sim::device::DeviceConfig;
    use br_gpu_sim::sim::GpuSimulator;
    use br_sparse::CsrMatrix;
    use br_spgemm::accum::{BinThresholds, RowBins};
    use br_spgemm::context::ProblemContext;
    use br_spgemm::estimate::{EstimatorConfig, MethodChoice};

    fn skewed() -> CsrMatrix<f64> {
        chung_lu(ChungLuConfig {
            gamma: 2.0,
            ..ChungLuConfig::social(1200, 8000, 33)
        })
        .to_csr()
    }

    fn cached(
        plan: &ReorgPlan,
        sim: &GpuSimulator,
        ctx: &ProblemContext<f64>,
    ) -> ReorganizerRun<f64> {
        plan.execute_on(sim, ctx, PlanMode::Cached).unwrap()
    }

    /// Everything a memo-served run must share with a fresh simulation.
    fn assert_same_run(served: &ReorganizerRun<f64>, fresh: &ReorganizerRun<f64>, what: &str) {
        assert_eq!(
            format!("{:?}", served.profiles),
            format!("{:?}", fresh.profiles),
            "{what}: profiles"
        );
        assert_eq!(
            served.total_ms.to_bits(),
            fresh.total_ms.to_bits(),
            "{what}: total_ms"
        );
        assert_eq!(served.stats, fresh.stats, "{what}: stats");
        assert_eq!(served.result, fresh.result, "{what}: result");
    }

    #[test]
    fn memo_served_runs_equal_fresh_simulations_across_the_knob_grid() {
        let a = skewed();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let oracle = br_sparse::ops::spgemm_gustavson(&a, &a).unwrap();
        let dev = DeviceConfig::titan_xp();
        let cfg = ReorganizerConfig::default();
        let sims = [1, 8].map(|t| GpuSimulator::new(dev.clone()).with_threads(t));
        // Low enough that the forced k-way bin takes the hub rows.
        let kway = BinThresholds {
            tiny_max: 4,
            heavy_min: 32,
            kway_min: 64,
        };
        for reorder in [ReorderStrategy::None, ReorderStrategy::Degree] {
            let estimated = ReorgPlan::build_estimated_with_reorder(
                &ctx,
                &cfg,
                &dev,
                &EstimatorConfig::default(),
                reorder,
            );
            for method in [
                MethodChoice::Reorganized,
                MethodChoice::RowProduct,
                MethodChoice::OuterProduct,
                MethodChoice::Esc,
                MethodChoice::Hash,
            ] {
                for forced_kway in [false, true] {
                    let what = format!("{reorder:?}/{method:?}/kway={forced_kway}");
                    let mut plan = estimated.clone();
                    plan.method = method;
                    if forced_kway {
                        plan.bins = RowBins::classify(&plan.bins.row_products.clone(), kway);
                        assert!(plan.bins.rows[3] > 0, "{what}: kway bin must be used");
                    }
                    // A clone starts with an empty memo, so each of these
                    // simulates from scratch.
                    let fresh = sims.each_ref().map(|sim| cached(&plan.clone(), sim, &ctx));
                    assert!(plan.profile_memo.device().is_none());
                    let fill = cached(&plan, &sims[0], &ctx);
                    assert_eq!(plan.profile_memo.device(), Some(&dev), "{what}: filled");
                    assert_same_run(&fill, &fresh[0], &what);
                    for (sim, fresh) in sims.iter().zip(&fresh) {
                        let served = cached(&plan, sim, &ctx);
                        let what = format!("{what}/threads={}", sim.threads());
                        assert_same_run(&served, fresh, &what);
                        assert_eq!(served.result, oracle, "{what}: oracle");
                    }
                }
            }
        }
    }

    #[test]
    fn cold_executions_leave_the_memo_empty() {
        let a = skewed();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let dev = DeviceConfig::titan_xp();
        let sim = GpuSimulator::new(dev.clone());
        let plan = ReorgPlan::build(&ctx, &ReorganizerConfig::default(), &dev);
        let fresh = cached(&plan.clone(), &sim, &ctx);
        let cold = plan.execute_on(&sim, &ctx, PlanMode::Cold).unwrap();
        assert!(plan.profile_memo.device().is_none(), "Cold must not fill");
        assert_eq!(cold.profiles.len(), fresh.profiles.len() + 1, "precalc");
        // Neither the fill nor the hit after a Cold run sees its L2 state.
        for _ in 0..2 {
            assert_same_run(&cached(&plan, &sim, &ctx), &fresh, "after cold");
        }
        // And a Cold run after the fill still simulates its own stream.
        let cold_again = plan.execute_on(&sim, &ctx, PlanMode::Cold).unwrap();
        assert_same_run(&cold_again, &cold, "cold after fill");
    }

    #[test]
    fn editing_a_plan_after_the_fill_simulates_afresh() {
        let a = skewed();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let dev = DeviceConfig::titan_xp();
        let sim = GpuSimulator::new(dev.clone());
        let mut plan = ReorgPlan::build(&ctx, &ReorganizerConfig::default(), &dev);
        let filled = cached(&plan, &sim, &ctx);
        let differs = |run: &ReorganizerRun<f64>| {
            format!("{:?}", run.profiles) != format!("{:?}", filled.profiles)
        };

        plan.method = MethodChoice::RowProduct;
        let fresh = cached(&plan.clone(), &sim, &ctx);
        assert!(differs(&fresh), "the edit must change the stream");
        assert_same_run(&cached(&plan, &sim, &ctx), &fresh, "method edited");

        // Undoing the edit matches the memo's fingerprint again.
        plan.method = MethodChoice::Reorganized;
        assert_same_run(&cached(&plan, &sim, &ctx), &filled, "method restored");

        plan.bins = RowBins::classify(
            &plan.bins.row_products.clone(),
            BinThresholds {
                tiny_max: 4,
                heavy_min: 32,
                kway_min: 64,
            },
        );
        let fresh = cached(&plan.clone(), &sim, &ctx);
        assert!(differs(&fresh), "the edit must change the stream");
        assert_same_run(&cached(&plan, &sim, &ctx), &fresh, "bins edited");
        assert_eq!(plan.profile_memo.device(), Some(&dev), "memo kept");
    }

    #[test]
    fn the_memo_serves_only_the_device_it_was_filled_on() {
        let a = skewed();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let big = DeviceConfig::titan_xp();
        // Same name, different SM count: the name alone must not match.
        let small = DeviceConfig {
            num_sms: big.num_sms / 2,
            ..big.clone()
        };
        assert_eq!(small.name, big.name);
        let plan = ReorgPlan::build(&ctx, &ReorganizerConfig::default(), &big);
        let fresh =
            [&big, &small].map(|dev| cached(&plan.clone(), &GpuSimulator::new(dev.clone()), &ctx));
        assert_ne!(
            format!("{:?}", fresh[0].profiles),
            format!("{:?}", fresh[1].profiles),
            "the two devices must simulate differently"
        );
        for (first, second) in [(0, 1), (1, 0)] {
            let devs = [&big, &small];
            let sims = devs.map(|dev| GpuSimulator::new(dev.clone()));
            let plan = plan.clone();
            for round in 0..2 {
                for i in [first, second] {
                    let what = format!("order {first}{second}, round {round}, device {i}");
                    assert_same_run(&cached(&plan, &sims[i], &ctx), &fresh[i], &what);
                    assert_eq!(plan.profile_memo.device(), Some(devs[first]), "{what}");
                }
            }
        }
    }

    #[test]
    fn serialized_and_cloned_plans_compare_equal_and_start_empty() {
        let a = skewed();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let dev = DeviceConfig::titan_xp();
        let plan = ReorgPlan::build(&ctx, &ReorganizerConfig::default(), &dev);
        let empty = plan.clone();
        let run = plan.execute(&ctx, &dev, PlanMode::Cached).unwrap();
        assert!(plan.profile_memo.device().is_some());
        assert_eq!(plan, empty, "equality ignores the memo");
        let back: ReorgPlan = serde_json::from_str(&serde_json::to_string(&plan).unwrap()).unwrap();
        assert_eq!(back, plan);
        assert!(back.profile_memo.device().is_none());
        assert!(plan.clone().profile_memo.device().is_none());
        assert_same_run(
            &back.execute(&ctx, &dev, PlanMode::Cached).unwrap(),
            &run,
            "deserialized",
        );
    }
}
