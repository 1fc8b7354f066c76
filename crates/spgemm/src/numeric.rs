//! The host numeric engine every method's result comes from.
//!
//! The simulated methods differ only in their launch streams; the host
//! result they owe the user is the same product, so one engine computes it
//! for all of them: [`spgemm_parallel`], the adaptive row-binned merge of
//! [`crate::accum`]. [`br_sparse::ops::spgemm_gustavson`] stays the single
//! oracle it is checked against.

use br_sparse::{par, CsrMatrix, Result, Scalar};

use crate::accum;

/// Multithreaded adaptive merge: rows are binned by intermediate-product
/// upper bound and dispatched to per-bin kernels (see [`crate::accum`]),
/// distributed over `threads` scoped workers with reusable scratch.
/// Produces canonical CSR bit-identical to
/// [`br_sparse::ops::spgemm_gustavson`] (same per-row, per-column
/// accumulation order) at every thread count and threshold setting.
pub fn spgemm_parallel<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    threads: usize,
) -> Result<CsrMatrix<T>> {
    accum::spgemm_adaptive(a, b, threads, accum::effective_thresholds_for(b.ncols()))
}

/// A sensible default worker count for the numeric engine: the resolved
/// [`br_sparse::par`] configuration (`--threads` override, `BR_THREADS`,
/// else available cores).
pub fn default_threads() -> usize {
    par::effective_threads(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_sparse::ops::spgemm_gustavson;

    #[test]
    fn shape_mismatch_rejected() {
        let a = CsrMatrix::<f64>::zeros(2, 3);
        assert!(spgemm_parallel(&a, &a, 4).is_err());
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let a = rmat(RmatConfig::graph500(9, 8, 77)).to_csr();
        let seq = spgemm_gustavson(&a, &a).unwrap();
        for threads in [1, 2, 3, 8, 20] {
            let par = spgemm_parallel(&a, &a, threads).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_handles_hub_concentrated_work() {
        // All the work lives in one row: partitioning must still cover
        // every row exactly once.
        let n = 600;
        let mut ptr = vec![0usize; n + 1];
        let mut idx: Vec<u32> = (0..n as u32).collect();
        ptr[1] = n;
        for r in 1..n {
            idx.push(0);
            ptr[r + 1] = ptr[r] + 1;
        }
        let a = CsrMatrix::try_new(n, n, ptr, idx, vec![1.0; 2 * n - 1]).unwrap();
        let par = spgemm_parallel(&a, &a, 8).unwrap();
        let seq = spgemm_gustavson(&a, &a).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_small_input_falls_back_to_sequential() {
        let i = CsrMatrix::<f64>::identity(10);
        assert_eq!(
            spgemm_parallel(&i, &i, 16).unwrap(),
            spgemm_gustavson(&i, &i).unwrap()
        );
    }

    #[test]
    fn parallel_handles_interspersed_empty_rows() {
        // Every other row is empty (zero weight): the weighted partition
        // must still cover all rows and the stitched `ptr` must stay flat
        // across the empty ones.
        let n = 400;
        let mut ptr = vec![0usize; n + 1];
        let mut idx = Vec::new();
        for r in 0..n {
            if r % 2 == 0 {
                idx.push((r % 7) as u32);
                idx.push((7 + r % 11) as u32);
            }
            ptr[r + 1] = idx.len();
        }
        let nnz = idx.len();
        let a = CsrMatrix::try_new(n, n, ptr, idx, vec![0.5f64; nnz]).unwrap();
        let seq = spgemm_gustavson(&a, &a).unwrap();
        for threads in [2, 5, 16] {
            assert_eq!(spgemm_parallel(&a, &a, threads).unwrap(), seq);
        }
    }

    #[test]
    fn parallel_weight_cliffs_at_chunk_boundaries() {
        // Weights arranged so greedy prefix cuts land right before/after
        // huge rows: alternating runs of featherweight rows and one row
        // that multiplies against a dense hub row of B.
        let n = 512;
        let hub_width = 256u32;
        let mut ptr = vec![0usize; n + 1];
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for r in 0..n {
            if r % 64 == 63 {
                // Heavy row: points at row 0 of B (the hub) many times over
                // distinct columns 0..8, each expanding hub_width products.
                for j in 0..8 {
                    idx.push(j);
                    val.push(1.0 + j as f64);
                }
            } else {
                idx.push((r % 32) as u32 + 8);
                val.push(0.25);
            }
            ptr[r + 1] = idx.len();
        }
        let a = CsrMatrix::try_new(n, n, ptr, idx, val).unwrap();

        // B: rows 0..8 dense over `hub_width` columns, the rest singletons.
        let mut bptr = vec![0usize; n + 1];
        let mut bidx = Vec::new();
        let mut bval = Vec::new();
        for r in 0..n {
            if r < 8 {
                for j in 0..hub_width {
                    bidx.push(j);
                    bval.push(1.0 / (1.0 + j as f64));
                }
            } else {
                bidx.push((r % 300) as u32);
                bval.push(2.0);
            }
            bptr[r + 1] = bidx.len();
        }
        let b = CsrMatrix::try_new(n, n, bptr, bidx, bval).unwrap();

        let seq = spgemm_gustavson(&a, &b).unwrap();
        for threads in [2, 3, 7, 8, 64] {
            assert_eq!(spgemm_parallel(&a, &b, threads).unwrap(), seq);
        }
    }

    #[test]
    fn parallel_all_products_collapse_to_one_column() {
        // B has a single column, so every intermediate product for a row
        // lands on the same accumulator slot — the worst case for
        // accumulation-order sensitivity. The parallel engine must still
        // match the oracle bit-for-bit.
        let n = 256;
        let a = rmat(RmatConfig::snap_like(8, 5, 9)).to_csr();
        let n_a = a.ncols();
        let bptr: Vec<usize> = (0..=n_a).collect();
        let b = CsrMatrix::try_new(
            n_a,
            1,
            bptr,
            vec![0u32; n_a],
            (0..n_a).map(|k| 1.0 + (k % 13) as f64 * 0.125).collect(),
        )
        .unwrap();
        assert!(a.nrows() >= n); // large enough to take the parallel path
        let oracle = spgemm_gustavson(&a, &b).unwrap();
        for threads in [2, 8] {
            assert_eq!(spgemm_parallel(&a, &b, threads).unwrap(), oracle);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// Property: for arbitrary power-law matrices and thread counts the
        /// parallel engine is bit-for-bit the sequential oracle.
        #[test]
        fn prop_parallel_bit_identical(seed in 0u64..1000, threads in 2usize..12) {
            let a = rmat(RmatConfig::snap_like(8, 6, seed)).to_csr();
            let seq = spgemm_gustavson(&a, &a).unwrap();
            let par = spgemm_parallel(&a, &a, threads).unwrap();
            proptest::prop_assert_eq!(par, seq);
        }
    }
}
