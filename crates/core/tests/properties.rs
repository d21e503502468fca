//! Property-based tests for the core algorithms: every implementation
//! agrees with the oracle on random problems, measured costs equal the
//! closed-form models, and the lower-bound machinery holds on random
//! iteration subsets.

use mttkrp_core::kernels::{
    local_mttkrp, native_tile, LocalKernel, DEFAULT_CACHE_WORDS, FLAT_BLOCK_MIN_FACTOR_WORDS,
};
use mttkrp_core::{bounds, hbl, model, par, seq, Problem};
use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};
use proptest::prelude::*;
use std::collections::HashSet;

fn build(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
    let shape = Shape::new(dims);
    let x = DenseTensor::random(shape, seed);
    let factors = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, r, seed ^ ((k as u64 + 3) * 104729)))
        .collect();
    (x, factors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_equals_oracle_any_block_size(
        dims in prop::collection::vec(2usize..6, 2..4),
        r in 1usize..4,
        b in 1usize..4,
        seed in 0u64..1000,
        mode_frac in 0.0f64..1.0,
    ) {
        let n = ((dims.len() - 1) as f64 * mode_frac) as usize;
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let order = dims.len();
        let m = b.pow(order as u32) + order * b + 2;
        let run = seq::mttkrp_blocked(&x, &refs, n, m, b);
        let oracle = mttkrp_reference(&x, &refs, n);
        prop_assert!(run.output.max_abs_diff(&oracle) < 1e-9 * (1.0 + oracle.frob_norm()));

        // Measured I/O equals the exact model.
        let p = Problem::new(&dims.iter().map(|&d| d as u64).collect::<Vec<u64>>(), r as u64);
        prop_assert_eq!(run.stats.total() as u128, model::alg2_cost_exact(&p, n, b as u64));
        // ... and never exceeds Eq. (12).
        prop_assert!(run.stats.total() as f64 <= model::alg2_cost_upper(&p, b as u64) + 0.5);
        // ... and respects the lower bounds.
        prop_assert!(run.stats.total() as f64 >= bounds::seq_best(&p, m as u64));
    }

    #[test]
    fn stationary_equals_oracle_on_random_dividing_grids(
        exps in prop::collection::vec(0u32..2, 3..=3),
        r in 1usize..4,
        seed in 0u64..1000,
        mode_frac in 0.0f64..1.0,
    ) {
        // dims 4 or 8; grid 2^e with e <= 2 dividing them.
        let dims: Vec<usize> = exps.iter().map(|&e| 4usize << e).collect();
        let grid: Vec<usize> = exps.iter().map(|&e| 1usize << e).collect();
        let n = 2usize.min(((dims.len() - 1) as f64 * mode_frac) as usize);
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = par::mttkrp_stationary(&x, &refs, n, &grid);
        let oracle = mttkrp_reference(&x, &refs, n);
        prop_assert!(run.output.max_abs_diff(&oracle) < 1e-9 * (1.0 + oracle.frob_norm()));
    }

    #[test]
    fn general_equals_oracle_with_rank_splits(
        p0_exp in 0u32..3,
        r_mult in 1usize..3,
        seed in 0u64..1000,
    ) {
        let p0 = 1usize << p0_exp;
        let r = p0 * r_mult;
        let dims = [4usize, 4, 4];
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = par::mttkrp_general(&x, &refs, 1, p0, &[2, 1, 2]);
        let oracle = mttkrp_reference(&x, &refs, 1);
        prop_assert!(run.output.max_abs_diff(&oracle) < 1e-9 * (1.0 + oracle.frob_norm()));
    }

    #[test]
    fn hbl_inequality_random_subsets(
        pts in prop::collection::vec(prop::collection::vec(0usize..5, 4..=4), 1..40),
    ) {
        // Lemma 4.1 with s* on arbitrary subsets of a 3-way iteration space.
        let set: HashSet<Vec<usize>> = pts.into_iter().collect();
        let f: Vec<Vec<usize>> = set.into_iter().collect();
        let bound = hbl::hbl_upper_bound(&f, 3);
        prop_assert!(f.len() as f64 <= bound + 1e-9);
    }

    #[test]
    fn lower_bounds_dominated_by_alg2_model(
        log_m in 4u32..14,
        dim_exp in 3u32..7,
        r in 1u64..64,
    ) {
        // The Eq. (12)-style upper bound with the best feasible b must
        // dominate the lower bounds for every parameter combination
        // (soundness of the pair; Theorem 6.1 says they are also within a
        // constant in the right regime).
        let m = 1u64 << log_m;
        let p = Problem::cubical(3, 1u64 << dim_exp, r);
        let b = seq::choose_block_size(m as usize, 3) as u64;
        let ub = model::alg2_cost_exact(&p, 0, b) as f64;
        let lb = bounds::seq_best(&p, m);
        prop_assert!(ub >= lb - 1e-6, "ub {ub} < lb {lb}");
    }

    #[test]
    fn parallel_bounds_dominated_by_alg4_model(
        log_p in 0u32..16,
        dim_exp in 4u32..9,
        r_exp in 0u32..8,
    ) {
        // Sends+receives of the best Eq. (18) grid (2x the one-way model)
        // dominate the memory-independent bounds.
        let procs = 1u64 << log_p;
        let p = Problem::cubical(3, 1u64 << dim_exp, 1u64 << r_exp);
        let (_, _, cost) = mttkrp_core::grid_opt::optimize_alg4_grid(&p, procs);
        let lb = bounds::par_best_mi(&p, procs);
        prop_assert!(2.0 * cost >= lb - 1e-6, "2*{cost} < {lb}");
    }

    #[test]
    fn lemma_43_44_are_inverse_like(c in 0.5f64..50.0, s1 in 0.1f64..1.0, s2 in 0.1f64..1.0) {
        // If the max product under sum <= c is V, then the min sum under
        // product >= V is c (the optimizers coincide).
        let s = [s1, s2];
        let v = hbl::lemma43_max_product(&s, c);
        let back = hbl::lemma44_min_sum(&s, v);
        prop_assert!((back - c).abs() < 1e-6 * c, "{back} != {c}");
    }

    #[test]
    fn grid_optimizer_never_beaten_by_random_factorization(
        procs in 1u64..200,
        dim in 8u64..64,
        r in 1u64..16,
        pick in 0usize..50,
    ) {
        let p = Problem::new(&[dim, dim * 2, dim / 2 + 1], r);
        let (_, best) = mttkrp_core::grid_opt::optimize_alg3_grid(&p, procs);
        let all = mttkrp_core::grid_opt::factorizations(procs, 3);
        let g = &all[pick % all.len()];
        prop_assert!(model::alg3_cost(&p, g) >= best - 1e-9);
    }
}

/// Checks the one local kernel against the oracle on every mode: the
/// single-threaded [`local_mttkrp`] pass, `exec::mttkrp_native` (the same
/// walk partitioned over a pool) on 1, 2 and 8 threads, and the flat walk
/// of [`LocalKernel`] over two ranges split mid-run (so a tall shape runs
/// the blocked walk with a partial head and tail run), with tiles 1, 2, an
/// odd edge, and the default. Agreement is to 1e-12 relative to the
/// oracle's Frobenius norm.
fn check_unified_kernel(dims: &[usize], r: usize, seed: u64, odd_tile: usize) {
    let (x, factors) = build(dims, r, seed);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let pools: Vec<rayon::ThreadPool> = [1, 2, 8]
        .iter()
        .map(|&t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
        })
        .collect();
    let tiles = [
        1,
        2,
        odd_tile,
        native_tile(DEFAULT_CACHE_WORDS, dims.len(), r),
    ];
    for n in 0..dims.len() {
        let want = mttkrp_reference(&x, &refs, n);
        let tol = 1e-12 * want.frob_norm();
        let local = local_mttkrp(&x, &refs, n);
        assert!(
            local.max_abs_diff(&want) <= tol,
            "local_mttkrp: dims {dims:?}, r {r}, mode {n}"
        );
        let entries = x.num_entries();
        for &tile in &tiles {
            let kernel = LocalKernel::new(&x, &refs, n).with_tile(tile);
            let mut flat = Matrix::zeros(dims[n], r);
            kernel.accumulate_flat(0, entries / 3, flat.data_mut());
            kernel.accumulate_flat(entries / 3, entries, flat.data_mut());
            assert!(
                flat.max_abs_diff(&want) <= tol,
                "flat walk: dims {dims:?}, r {r}, mode {n}, tile {tile}"
            );
        }
        for pool in &pools {
            for &tile in &tiles {
                let got = mttkrp_exec::mttkrp_native(&x, &refs, n, tile, pool);
                assert!(
                    got.max_abs_diff(&want) <= tol,
                    "mttkrp_native: dims {dims:?}, r {r}, mode {n}, {} threads, tile {tile}",
                    pool.current_num_threads()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unified_kernel_matches_oracle_on_small_shapes(
        dims in prop::collection::vec(1usize..6, 2..6),
        r in 1usize..10,
        seed in 0u64..1000,
        half in 1usize..4,
    ) {
        check_unified_kernel(&dims, r, seed, 2 * half + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tall-skinny shapes whose mode-0 factor reaches
    /// `FLAT_BLOCK_MIN_FACTOR_WORDS`, so the flat walk takes its blocked
    /// path (and the 8-thread native run, with a last mode below 16, takes
    /// flat entry ranges).
    #[test]
    fn unified_kernel_matches_oracle_on_blocked_flat_shapes(
        rest in prop::collection::vec(1usize..4, 1..3),
        r in 1usize..10,
        extra in 0usize..7,
        seed in 0u64..1000,
        half in 1usize..4,
    ) {
        let mut dims = vec![FLAT_BLOCK_MIN_FACTOR_WORDS.div_ceil(r) + extra];
        dims.extend(&rest);
        prop_assert!(dims[0] * r >= FLAT_BLOCK_MIN_FACTOR_WORDS);
        check_unified_kernel(&dims, r, seed, 2 * half + 1);
    }
}
