//! The three workloads and their seeded request streams. Every input is a
//! pure function of `(workload, seed, tiny)`.

/// Host threads per server worker; workers × threads ≤ 2 cores.
pub const SERVE_WORKERS: usize = 2;
/// Host threads each serving worker's simulator and numeric merge use.
pub const SERVE_THREADS: usize = 1;
/// Client connections, each with one `Submit` outstanding (closed loop).
pub const SERVE_CONNECTIONS: usize = 2;
/// Workers of the in-process chain batch. One worker makes the batch's
/// wall time independent of the seeded submission order.
pub const CHAIN_WORKERS: usize = 1;
/// Host threads the chain worker uses: one, so nothing else in the
/// process competes with the batch for memory bandwidth and arenas.
pub const CHAIN_THREADS: usize = 1;
/// Plan-cache capacity of the chain batch: larger than its distinct plan
/// keys, so hits and misses are a pure function of the batch.
pub const CHAIN_CACHE: usize = 64;
/// Set-up repetitions per serve run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Set-up repetitions per chain run: its set-up takes milliseconds, so
/// more repetitions keep the median steady.
pub const CHAIN_SETUP_REPS: usize = 15;

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Loopback closed loop over a fixed pool: plan-cache hits.
    ServeHot,
    /// Loopback closed loop over structures never seen: plan-cache misses.
    ServeCold,
    /// One in-process `SpgemmService::run_chains` batch per repetition.
    ChainBatch,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::ServeHot, Kind::ServeCold, Kind::ChainBatch];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeHot => "serve_hot",
            Kind::ServeCold => "serve_cold",
            Kind::ChainBatch => "chain_batch",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The `serve_hot` pool: mesh-like and power-law structures at ÷16.
const HOT_POOL: [&str; 5] = [
    "dataset=harbor scale=16",
    "dataset=filter3D scale=16",
    "dataset=emailEnron scale=16",
    "dataset=patents_main scale=16",
    "rmat=12,8 seed=42",
];
const HOT_POOL_TINY: [&str; 3] = ["rmat=7,4 seed=11", "rmat=7,6 seed=12", "rmat=8,4 seed=13"];

/// `serve_cold` RMAT shapes `(scale, edge factor)` of similar cost.
const COLD_SHAPES: [(u32, usize); 4] = [(12, 8), (11, 16), (12, 6), (11, 12)];
const COLD_SHAPES_TINY: [(u32, usize); 2] = [(7, 4), (7, 6)];

/// Requests a timed serve window completes at least, so that p90 has ten
/// samples beyond it; `sim_gflops` covers exactly this stream prefix.
pub const MIN_REQUESTS: usize = 100;
const MIN_REQUESTS_TINY: usize = 12;

/// Distinct structures `serve_cold` sends before timing (warm-up).
const COLD_WARMUP: usize = 2;

/// Chain-batch datasets (Table II surrogates at ÷64) and their tiny stand-ins.
const CHAIN_DATASETS: [&str; 3] = [
    "dataset=harbor scale=64",
    "dataset=emailEnron scale=64",
    "dataset=patents_main scale=64",
];
const CHAIN_DATASETS_TINY: [&str; 2] = ["rmat=7,4 seed=21", "rmat=7,6 seed=22"];
const CHAIN_PROGRAMS: [&str; 4] = ["square:3", "markov:3,0.001", "triangle", "galerkin"];

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix(state);
        p.swap(i, (state % (i as u64 + 1)) as usize);
    }
    p
}

/// One workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The `--seed` everything derives from.
    pub seed: u64,
    /// Small inputs for the smoke tests.
    pub tiny: bool,
}

impl Workload {
    /// The workload for `kind` under `seed`.
    pub fn new(kind: Kind, seed: u64, tiny: bool) -> Self {
        Workload { kind, seed, tiny }
    }

    fn hot_pool(&self) -> &'static [&'static str] {
        if self.tiny {
            &HOT_POOL_TINY
        } else {
            &HOT_POOL
        }
    }

    /// Requests every timed serve window completes at least.
    pub fn min_requests(&self) -> usize {
        if self.tiny {
            MIN_REQUESTS_TINY
        } else {
            MIN_REQUESTS
        }
    }

    /// Position of request `i` inside its round of `n`: rounds are seeded
    /// permutations, so every window sees each entry almost equally often.
    fn round_slot(&self, i: usize, n: usize) -> usize {
        let round = (i / n) as u64;
        permutation(n, splitmix(self.seed ^ splitmix(round)))[i % n]
    }

    /// The job spec of timed request `i`.
    pub fn spec(&self, i: usize) -> String {
        match self.kind {
            Kind::ServeHot => {
                let pool = self.hot_pool();
                pool[self.round_slot(i, pool.len())].to_string()
            }
            Kind::ServeCold => {
                let shapes: &[(u32, usize)] = if self.tiny {
                    &COLD_SHAPES_TINY
                } else {
                    &COLD_SHAPES
                };
                let (scale, ef) = shapes[self.round_slot(i, shapes.len())];
                let rmat_seed = splitmix(self.seed.wrapping_mul(0x1000_0000_01B3) ^ i as u64) >> 16;
                format!("rmat={scale},{ef} seed={rmat_seed}")
            }
            Kind::ChainBatch => {
                let chains = self.chain_specs();
                chains[i % chains.len()].clone()
            }
        }
    }

    /// Specs sent before timing: each pool structure once for `serve_hot`,
    /// a few unrelated structures for `serve_cold`.
    pub fn warmup_specs(&self) -> Vec<String> {
        match self.kind {
            Kind::ServeHot => self.hot_pool().iter().map(|s| s.to_string()).collect(),
            Kind::ServeCold => (0..COLD_WARMUP)
                .map(|j| {
                    let rmat_seed = splitmix(!self.seed ^ (j as u64) << 32) >> 16;
                    let (scale, ef) = if self.tiny { (7, 5) } else { (11, 8) };
                    format!("rmat={scale},{ef} seed={rmat_seed}")
                })
                .collect(),
            Kind::ChainBatch => Vec::new(),
        }
    }

    /// The chain batch, one job-file line per chain: the datasets in a
    /// seeded order, each with its programs in a fixed order. Chains over
    /// one dataset share plan keys (`square:3` and `triangle` both start
    /// with A·A), so the fixed order within a dataset keeps which chain
    /// pays each shared miss, and with it every chain's latency, the same
    /// under every seed.
    pub fn chain_specs(&self) -> Vec<String> {
        let datasets: &[&str] = if self.tiny {
            &CHAIN_DATASETS_TINY
        } else {
            &CHAIN_DATASETS
        };
        permutation(datasets.len(), splitmix(self.seed))
            .into_iter()
            .flat_map(|d| {
                CHAIN_PROGRAMS
                    .iter()
                    .map(move |p| format!("chain={p} {}", datasets[d]))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        for kind in Kind::ALL {
            let a = Workload::new(kind, 7, false);
            let b = Workload::new(kind, 7, false);
            let sa: Vec<String> = (0..40).map(|i| a.spec(i)).collect();
            let sb: Vec<String> = (0..40).map(|i| b.spec(i)).collect();
            assert_eq!(sa, sb);
            let mut streams: Vec<Vec<String>> = (0..10)
                .map(|seed| {
                    let w = Workload::new(kind, seed, false);
                    (0..40).map(|i| w.spec(i)).collect()
                })
                .collect();
            streams.sort();
            streams.dedup();
            assert!(streams.len() > 1, "{kind:?} ignores the seed");
        }
    }

    #[test]
    fn hot_rounds_cover_the_pool_evenly() {
        let w = Workload::new(Kind::ServeHot, 3, false);
        for round in 0..4 {
            let mut got: Vec<String> = (0..5).map(|k| w.spec(round * 5 + k)).collect();
            got.sort();
            let mut want: Vec<String> = HOT_POOL.iter().map(|s| s.to_string()).collect();
            want.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn cold_requests_never_repeat_a_structure() {
        let w = Workload::new(Kind::ServeCold, 5, false);
        let mut specs: Vec<String> = (0..500).map(|i| w.spec(i)).collect();
        specs.extend(w.warmup_specs());
        let n = specs.len();
        specs.sort();
        specs.dedup();
        assert_eq!(specs.len(), n);
    }

    #[test]
    fn chain_batch_is_the_full_grid() {
        let w = Workload::new(Kind::ChainBatch, 1, false);
        let mut specs = w.chain_specs();
        assert_eq!(specs.len(), 12);
        specs.sort();
        specs.dedup();
        assert_eq!(specs.len(), 12);
    }
}
