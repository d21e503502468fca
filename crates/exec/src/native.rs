//! The native backend: the [`mttkrp_core::kernels`] local kernel,
//! partitioned over a rayon thread pool.
//!
//! This module does no per-entry arithmetic of its own. It chooses a
//! parallel grain, splits the tensor, runs [`LocalKernel`] on each piece
//! and folds the pieces' outputs; the cache-tiled walk and its GEMV fusion
//! live in `core::kernels`, shared with every other backend.
//!
//! Parallel decomposition: the tensor is split into contiguous *last-mode
//! slabs* (disjoint `&[f64]` slices, handed out by the unsafe-free
//! [`DenseTensor::par_last_mode_slabs`] accessor). When the output mode *is*
//! the last mode, slabs map to disjoint output row chunks
//! ([`Matrix::par_row_chunks_mut`]) and threads write their rows directly;
//! otherwise each rayon fold keeps a per-thread accumulator matrix and the
//! partials are summed in the reduce step — no locks, no `unsafe`.
//!
//! Parallel grain: last-mode slabs are the preferred decomposition (the
//! slab data is contiguous and the tiled walk runs within it), but a
//! tensor whose *last* mode is smaller than the pool (e.g. `512 x 512 x
//! 2`) cannot feed every worker that way. [`native_grain`] detects this and
//! switches to *flat entry ranges*: the tensor's colex data is split into
//! `~4 x threads` contiguous chunks of entries — shape-independent, so the
//! pool is always fed — and each chunk is accumulated into a per-thread
//! output matrix, summed in the reduction.

use crate::backend::{Backend, ExecCost, ExecReport};
use crate::machine::DEFAULT_CACHE_WORDS;
use crate::plan::Plan;
use mttkrp_core::kernels::{native_tile, LocalKernel};
use mttkrp_core::par::dist::split_range;
use mttkrp_tensor::{DenseTensor, Matrix};
use rayon::prelude::*;
use std::time::Instant;

/// How [`mttkrp_native`] splits work across the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParGrain {
    /// Contiguous last-mode slabs of `depth` indices each (`count` slabs
    /// in total); the cache-tiled kernel runs within each slab.
    LastModeSlabs {
        /// Last-mode indices per slab.
        depth: usize,
        /// Number of slabs handed to the pool.
        count: usize,
    },
    /// `chunks` contiguous ranges of the tensor's flat entry space, each
    /// accumulated into a per-thread output matrix. Used when the last
    /// mode is too short to feed the pool with slabs.
    FlatRanges {
        /// Number of entry ranges handed to the pool.
        chunks: usize,
    },
}

/// Chooses the parallel decomposition for a tensor whose last-mode extent
/// is `i_last` and entry count is `entries`, on `threads` workers.
///
/// Last-mode slabs (4 per thread for load balance) whenever the last mode
/// can feed the pool; flat entry ranges when it cannot (`i_last` below
/// `2 x threads`), so skinny-last-mode shapes like `512 x 512 x 2` still
/// use every worker. Single-threaded runs always take one slab pass.
pub fn native_grain(i_last: usize, entries: usize, threads: usize) -> ParGrain {
    let threads = threads.max(1);
    if threads > 1 && i_last < 2 * threads {
        ParGrain::FlatRanges {
            chunks: (4 * threads).min(entries).max(1),
        }
    } else {
        let depth = i_last.div_ceil(4 * threads).max(1);
        ParGrain::LastModeSlabs {
            depth,
            count: i_last.div_ceil(depth),
        }
    }
}

/// Cache-tiled parallel MTTKRP on the given rayon pool. `tile` is the block
/// edge (see [`native_tile`]); `factors[n]` is ignored.
pub fn mttkrp_native(
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    tile: usize,
    pool: &rayon::ThreadPool,
) -> Matrix {
    let kernel = LocalKernel::new(x, factors, n).with_tile(tile);
    let r = factors[0].cols();
    let shape = x.shape();
    let order = shape.order();
    let last = order - 1;
    let i_n = shape.dim(n);
    let i_last = shape.dim(last);
    let threads = pool.current_num_threads().max(1);
    let grain = native_grain(i_last, x.num_entries(), threads);

    pool.install(|| match grain {
        ParGrain::LastModeSlabs { depth, .. } if n == last => {
            // Slabs own disjoint output rows: write in place, no reduction.
            let mut b = Matrix::zeros(i_n, r);
            b.par_row_chunks_mut(depth)
                .zip(x.par_last_mode_slabs(depth))
                .for_each(|((row0, rows), (j0, slab))| {
                    debug_assert_eq!(row0, j0);
                    kernel.accumulate_slab(j0, slab, rows, j0);
                });
            b
        }
        ParGrain::LastModeSlabs { depth, .. } => {
            // Per-thread accumulators, summed pairwise in the reduction.
            x.par_last_mode_slabs(depth)
                .fold(
                    || Matrix::zeros(i_n, r),
                    |mut acc, (j0, slab)| {
                        kernel.accumulate_slab(j0, slab, acc.data_mut(), 0);
                        acc
                    },
                )
                .reduce(
                    || Matrix::zeros(i_n, r),
                    |mut a, b| {
                        a.axpy(1.0, &b);
                        a
                    },
                )
        }
        ParGrain::FlatRanges { chunks } => {
            // Shape-independent decomposition: contiguous flat entry
            // ranges with per-thread accumulators (every output row may be
            // touched by any chunk, so no in-place path exists here).
            let entries = x.num_entries();
            (0..chunks)
                .into_par_iter()
                .fold(
                    || Matrix::zeros(i_n, r),
                    |mut acc, c| {
                        let (lo, hi) = split_range(entries, chunks, c);
                        kernel.accumulate_flat(lo, hi, acc.data_mut());
                        acc
                    },
                )
                .reduce(
                    || Matrix::zeros(i_n, r),
                    |mut a, b| {
                        a.axpy(1.0, &b);
                        a
                    },
                )
        }
    })
}

/// Executes MTTKRP at hardware speed on a rayon thread pool.
pub struct NativeBackend {
    pool: rayon::ThreadPool,
    threads: usize,
    cache_words: usize,
}

impl NativeBackend {
    /// A backend with its own pool of exactly `threads` workers, tiling for
    /// a cache of `cache_words` words.
    pub fn new(threads: usize, cache_words: usize) -> NativeBackend {
        assert!(threads >= 1, "need at least one thread");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build rayon thread pool");
        NativeBackend {
            pool,
            threads,
            cache_words: cache_words.max(1),
        }
    }

    /// All available cores, default cache size.
    pub fn with_all_cores() -> NativeBackend {
        NativeBackend::new(crate::MachineSpec::detect_threads(), DEFAULT_CACHE_WORDS)
    }

    /// A single-threaded baseline (same kernel, no parallelism) — the
    /// comparison point for speedup measurements.
    pub fn single_threaded() -> NativeBackend {
        NativeBackend::new(1, DEFAULT_CACHE_WORDS)
    }

    /// The worker count of this backend's pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the tiled kernel directly (no plan needed), choosing the tile
    /// from this backend's cache size.
    pub fn run(&self, x: &DenseTensor, factors: &[&Matrix], mode: usize) -> Matrix {
        let tile = native_tile(self.cache_words, x.order(), factors[0].cols());
        mttkrp_native(x, factors, mode, tile, &self.pool)
    }
}

impl Backend for NativeBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    /// Runs the plan's MTTKRP on this backend's thread pool.
    ///
    /// The native backend has exactly one execution strategy — the
    /// cache-tiled shared-memory kernel — so only the plan's *mode*, *tile*
    /// and problem are honored. A distributed plan (Algorithm 3/4, parallel
    /// matmul) computes the same values here, but its processor grid and
    /// communication schedule describe the [`crate::SimBackend`], not this
    /// execution; callers forcing a distributed plan onto the native
    /// backend should say so to their users (the CLI prints a note).
    fn execute(&self, plan: &Plan, x: &DenseTensor, factors: &[&Matrix]) -> ExecReport {
        let tile = plan.native_tile();
        let start = Instant::now();
        let output = mttkrp_native(x, factors, plan.mode, tile, &self.pool);
        let elapsed = start.elapsed();
        ExecReport {
            output,
            backend: self.name(),
            cost: ExecCost::Native {
                elapsed,
                threads: self.threads,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_core::kernels::FLAT_BLOCK_MIN_FACTOR_WORDS;
    use mttkrp_tensor::{mttkrp_reference, Shape};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape.clone(), seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 50 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn native_tile_respects_budget() {
        // b^3 + 3*b*8 <= 1000: b = 8 gives 512 + 192 = 704, b = 9 gives 945.
        assert_eq!(native_tile(1000, 3, 8), 9);
        assert_eq!(native_tile(4, 3, 8), 1); // nothing fits: degenerate tile
        assert!(native_tile(1 << 21, 3, 32) >= 64);
    }

    #[test]
    fn matches_oracle_all_modes_3way() {
        let (x, factors) = setup(&[7, 5, 6], 4, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let be = NativeBackend::new(3, 1 << 12);
        for n in 0..3 {
            let got = be.run(&x, &refs, n);
            let want = mttkrp_reference(&x, &refs, n);
            assert!(got.max_abs_diff(&want) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn matches_oracle_4way_tiny_tile() {
        let (x, factors) = setup(&[4, 3, 5, 2], 3, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        for n in 0..4 {
            for tile in [1, 2, 7] {
                let got = mttkrp_native(&x, &refs, n, tile, &pool);
                let want = mttkrp_reference(&x, &refs, n);
                assert!(got.max_abs_diff(&want) < 1e-12, "mode {n}, tile {tile}");
            }
        }
    }

    #[test]
    fn matches_oracle_order2() {
        let (x, factors) = setup(&[9, 8], 5, 3);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let be = NativeBackend::new(2, 64);
        for n in 0..2 {
            let got = be.run(&x, &refs, n);
            let want = mttkrp_reference(&x, &refs, n);
            assert!(got.max_abs_diff(&want) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn grain_feeds_the_pool_on_skinny_last_modes() {
        // 512x512x2 on 8 threads: only 2 last-mode slabs exist, so the
        // grain must switch to flat ranges with at least one chunk per
        // worker (the regression the ROADMAP tracked).
        match native_grain(2, 512 * 512 * 2, 8) {
            ParGrain::FlatRanges { chunks } => assert!(chunks >= 8, "chunks = {chunks}"),
            other => panic!("expected flat ranges, got {other:?}"),
        }
        // A long last mode keeps the slab decomposition.
        match native_grain(64, 64 * 64 * 64, 8) {
            ParGrain::LastModeSlabs { count, .. } => assert!(count >= 8),
            other => panic!("expected slabs, got {other:?}"),
        }
        // Single-threaded runs never pay the accumulator reduction.
        assert!(matches!(
            native_grain(2, 1 << 12, 1),
            ParGrain::LastModeSlabs { .. }
        ));
    }

    #[test]
    fn skinny_last_mode_matches_oracle_all_modes() {
        // Regression: shapes like 512x512x2 previously underused the pool;
        // the flat-range path must stay correct for every output mode.
        let (x, factors) = setup(&[24, 20, 2], 5, 6);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let be = NativeBackend::new(8, 1 << 12);
        for n in 0..3 {
            let got = be.run(&x, &refs, n);
            let want = mttkrp_reference(&x, &refs, n);
            assert!(got.max_abs_diff(&want) < 1e-12, "mode {n}");
        }
        // Order-4 with two skinny trailing modes.
        let (x, factors) = setup(&[10, 9, 2, 2], 3, 7);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..4 {
            let got = be.run(&x, &refs, n);
            let want = mttkrp_reference(&x, &refs, n);
            assert!(got.max_abs_diff(&want) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn flat_streamed_walk_matches_oracle_below_the_blocking_threshold() {
        // Small mode-0 factors stay on the streamed path whatever the
        // tile; it must agree with the oracle on skinny last modes that
        // force flat ranges, for every output mode.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap();
        for dims in [&[37, 11, 2][..], &[64, 9, 3], &[13, 7, 2, 2]] {
            let (x, factors) = setup(dims, 5, 21);
            let refs: Vec<&Matrix> = factors.iter().collect();
            assert!(matches!(
                native_grain(dims[dims.len() - 1], x.num_entries(), 8),
                ParGrain::FlatRanges { .. }
            ));
            assert!(dims[0] * 5 < FLAT_BLOCK_MIN_FACTOR_WORDS);
            for n in 0..dims.len() {
                let want = mttkrp_reference(&x, &refs, n);
                for tile in [1, 16, 1024] {
                    let got = mttkrp_native(&x, &refs, n, tile, &pool);
                    assert!(
                        got.max_abs_diff(&want) < 1e-12,
                        "dims {dims:?}, mode {n}, tile {tile}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_blocked_walk_matches_streamed_walk_and_oracle() {
        // Tall-skinny shapes above the blocking threshold take the b-edge
        // banded walk (tile > 1); it must agree with the untiled streamed
        // baseline (tile = 1) and the oracle for every output mode. Chunk
        // boundaries from split_range land mid-run, so the partial
        // head/tail handling is exercised too.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap();
        for dims in [&[16384, 6, 2][..], &[16384, 3, 2, 2]] {
            let r = 4;
            assert!(dims[0] * r >= FLAT_BLOCK_MIN_FACTOR_WORDS);
            let (x, factors) = setup(dims, r, 22);
            let refs: Vec<&Matrix> = factors.iter().collect();
            assert!(matches!(
                native_grain(dims[dims.len() - 1], x.num_entries(), 8),
                ParGrain::FlatRanges { .. }
            ));
            for n in 0..dims.len() {
                let want = mttkrp_reference(&x, &refs, n);
                let streamed = mttkrp_native(&x, &refs, n, 1, &pool);
                assert!(
                    streamed.max_abs_diff(&want) < 1e-10,
                    "streamed dims {dims:?}, mode {n}"
                );
                for tile in [2, 61, 127] {
                    let blocked = mttkrp_native(&x, &refs, n, tile, &pool);
                    assert!(
                        blocked.max_abs_diff(&want) < 1e-10,
                        "dims {dims:?}, mode {n}, tile {tile}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_and_slab_paths_agree() {
        // The same shape through both decompositions (1 thread forces
        // slabs, 8 threads forces flat ranges on this skinny last mode).
        let (x, factors) = setup(&[16, 12, 3], 4, 8);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let slab = NativeBackend::single_threaded().run(&x, &refs, n);
            let flat = NativeBackend::new(8, DEFAULT_CACHE_WORDS).run(&x, &refs, n);
            assert!(slab.max_abs_diff(&flat) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn single_and_multi_thread_agree() {
        let (x, factors) = setup(&[12, 10, 8], 6, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let one = NativeBackend::single_threaded().run(&x, &refs, 1);
        let many = NativeBackend::new(4, DEFAULT_CACHE_WORDS).run(&x, &refs, 1);
        assert!(one.max_abs_diff(&many) < 1e-12);
    }
}
