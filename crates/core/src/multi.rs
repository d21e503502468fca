//! Multi-mode MTTKRP with intermediate reuse — the Section VII extension.
//!
//! CP-ALS needs `MTTKRP(X, ., n)` for *every* mode `n` per sweep. The paper
//! notes (citing Phan et al. \[13\]) that computing the modes jointly "can
//! save both communication and computation" because partial contractions
//! are shared. This module implements the *dimension-tree* organization:
//!
//! A node for a mode set `S` holds the partial tensor
//! `Y_S(i_S, r) = sum_{i_notS} X(i) * prod_{k not in S} A^(k)(i_k, r)`.
//! The root is `X` itself (`S = [N]`, no `r` index yet); each node's
//! children halve `S`; a leaf `S = {n}` *is* the mode-`n` MTTKRP output.
//! A partial contraction is computed once and reused by every leaf below
//! it, so the total multiply count drops from `Theta(N^2 I R)` (running
//! Definition 2.1 independently per mode) to `O(N I R)`... concretely about
//! `4 I R` multiplies for the whole sweep at large `N` splits, vs
//! `N (N-1) I R` for the naive approach.
//!
//! All arithmetic is counted so the reuse claim is testable.

use mttkrp_tensor::{DenseTensor, Matrix, Shape};

/// Multiply/add counters for one multi-MTTKRP evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlopCount {
    /// Scalar multiplications performed.
    pub muls: u64,
    /// Scalar additions performed.
    pub adds: u64,
}

impl FlopCount {
    /// Total flops.
    pub fn total(&self) -> u64 {
        self.muls + self.adds
    }
}

/// A partial contraction `Y_S`: a tensor over the *retained* modes plus the
/// rank index (stored with the mode indices colexicographic and `r`
/// slowest: `lin = lin_modes + r * prod(dims)`).
struct Partial {
    /// Global mode ids retained, ascending.
    modes: Vec<usize>,
    /// Extents of the retained modes (parallel to `modes`).
    dims: Vec<usize>,
    rank: usize,
    data: Vec<f64>,
}

impl Partial {
    fn mode_space(&self) -> usize {
        self.dims.iter().product()
    }
}

/// Contracts the root tensor `X` down to the mode set `keep` (ascending),
/// introducing the rank index: `Y_keep(i_keep, r) = sum X(i) prod_{k dropped} A^(k)(i_k, r)`.
fn contract_root(
    x: &DenseTensor,
    factors: &[&Matrix],
    keep: &[usize],
    flops: &mut FlopCount,
) -> Partial {
    let shape = x.shape();
    let order = shape.order();
    let r = factors[0].cols();
    let dims: Vec<usize> = keep.iter().map(|&k| shape.dim(k)).collect();
    let mode_space: usize = dims.iter().product();
    let mut data = vec![0.0f64; mode_space * r];
    let dropped: Vec<usize> = (0..order).filter(|k| !keep.contains(k)).collect();

    let mut idx = vec![0usize; order];
    for (lin, &xv) in x.data().iter().enumerate() {
        shape.delinearize_into(lin, &mut idx);
        // Destination mode index (colex over kept modes).
        let mut dest = 0usize;
        let mut stride = 1usize;
        for (s, &k) in keep.iter().enumerate() {
            dest += idx[k] * stride;
            stride *= dims[s];
        }
        for rr in 0..r {
            let mut prod = xv;
            for &k in &dropped {
                prod *= factors[k].row(idx[k])[rr];
            }
            data[dest + rr * mode_space] += prod;
            flops.muls += dropped.len() as u64;
            flops.adds += 1;
        }
    }
    Partial {
        modes: keep.to_vec(),
        dims,
        rank: r,
        data,
    }
}

/// Contracts a partial `Y_S` down to `keep ⊂ S`, multiplying in the factors
/// of the dropped modes (the rank index is already present, so each entry
/// contributes to exactly one `r`).
fn contract_partial(
    parent: &Partial,
    factors: &[&Matrix],
    keep: &[usize],
    flops: &mut FlopCount,
) -> Partial {
    let r = parent.rank;
    let dims: Vec<usize> = keep
        .iter()
        .map(|&k| {
            let pos = parent.modes.iter().position(|&m| m == k).expect("keep ⊆ S");
            parent.dims[pos]
        })
        .collect();
    let mode_space: usize = dims.iter().product();
    let parent_space = parent.mode_space();
    let mut data = vec![0.0f64; mode_space * r];

    // Positions (within the parent's mode list) of kept and dropped modes.
    let kept_pos: Vec<usize> = keep
        .iter()
        .map(|&k| parent.modes.iter().position(|&m| m == k).unwrap())
        .collect();
    let dropped: Vec<(usize, usize)> = parent
        .modes
        .iter()
        .enumerate()
        .filter(|(_, m)| !keep.contains(m))
        .map(|(pos, &m)| (pos, m))
        .collect();

    let pshape = Shape::new(&parent.dims);
    let mut pidx = vec![0usize; parent.modes.len()];
    for plin in 0..parent_space {
        pshape.delinearize_into(plin, &mut pidx);
        let mut dest = 0usize;
        let mut stride = 1usize;
        for (s, &pos) in kept_pos.iter().enumerate() {
            dest += pidx[pos] * stride;
            stride *= dims[s];
        }
        for rr in 0..r {
            let mut prod = parent.data[plin + rr * parent_space];
            for &(pos, m) in &dropped {
                prod *= factors[m].row(pidx[pos])[rr];
            }
            data[dest + rr * mode_space] += prod;
            flops.muls += dropped.len() as u64;
            flops.adds += 1;
        }
    }
    Partial {
        modes: keep.to_vec(),
        dims,
        rank: r,
        data,
    }
}

fn leaf_to_matrix(leaf: &Partial) -> Matrix {
    assert_eq!(leaf.modes.len(), 1);
    let rows = leaf.dims[0];
    Matrix::from_fn(rows, leaf.rank, |i, c| leaf.data[i + c * rows])
}

fn solve_subtree(
    parent: &Partial,
    factors: &[&Matrix],
    results: &mut Vec<(usize, Matrix)>,
    flops: &mut FlopCount,
) {
    if parent.modes.len() == 1 {
        results.push((parent.modes[0], leaf_to_matrix(parent)));
        return;
    }
    let half = parent.modes.len() / 2;
    let left: Vec<usize> = parent.modes[..half].to_vec();
    let right: Vec<usize> = parent.modes[half..].to_vec();
    let left_child = contract_partial(parent, factors, &left, flops);
    solve_subtree(&left_child, factors, results, flops);
    drop(left_child);
    let right_child = contract_partial(parent, factors, &right, flops);
    solve_subtree(&right_child, factors, results, flops);
}

/// Computes `MTTKRP(X, {A}, n)` for **every** mode `n` with a dimension
/// tree, sharing partial contractions across modes. Returns the `N` output
/// matrices (index `n` holds `B^(n)`) and the arithmetic counters.
///
/// All `N` factors participate (unlike single-mode MTTKRP, no factor is
/// ignored: factor `n` is used by every other mode's output).
pub fn mttkrp_all_modes_tree(x: &DenseTensor, factors: &[&Matrix]) -> (Vec<Matrix>, FlopCount) {
    let order = x.order();
    assert_eq!(factors.len(), order, "need one factor per mode");
    let r = factors[0].cols();
    for (k, f) in factors.iter().enumerate() {
        assert_eq!(f.rows(), x.shape().dim(k), "factor {k} row mismatch");
        assert_eq!(f.cols(), r, "factor {k} rank mismatch");
    }

    let mut flops = FlopCount::default();
    let mut results: Vec<(usize, Matrix)> = Vec::with_capacity(order);
    let half = order.div_ceil(2);
    let left: Vec<usize> = (0..half).collect();
    let right: Vec<usize> = (half..order).collect();

    let left_child = contract_root(x, factors, &left, &mut flops);
    solve_subtree(&left_child, factors, &mut results, &mut flops);
    drop(left_child);
    let right_child = contract_root(x, factors, &right, &mut flops);
    solve_subtree(&right_child, factors, &mut results, &mut flops);

    results.sort_by_key(|&(n, _)| n);
    let outputs = results.into_iter().map(|(_, m)| m).collect();
    (outputs, flops)
}

/// The naive comparison: `N` independent single-mode MTTKRPs, each a pass
/// of [`crate::kernels::local_mttkrp`]. Flops are counted for the atomic
/// formulation of Definition 2.1 ([`crate::arith::atomic_kernel_flops`]),
/// the `N (N-1) I R`-multiply baseline the module doc compares against.
pub fn mttkrp_all_modes_naive(x: &DenseTensor, factors: &[&Matrix]) -> (Vec<Matrix>, FlopCount) {
    let order = x.order();
    let mut flops = FlopCount::default();
    let outputs: Vec<Matrix> = (0..order)
        .map(|n| {
            let b = crate::kernels::local_mttkrp(x, factors, n);
            let r = factors[0].cols() as u64;
            let i = x.num_entries() as u64;
            flops.muls += i * r * (order as u64 - 1);
            flops.adds += i * r;
            b
        })
        .collect();
    (outputs, flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_tensor::mttkrp_reference;

    fn build(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape, seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 90 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn tree_matches_oracle_3way() {
        let (x, factors) = build(&[4, 5, 3], 3, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (outs, _) = mttkrp_all_modes_tree(&x, &refs);
        for n in 0..3 {
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(
                outs[n].max_abs_diff(&oracle) < 1e-10,
                "mode {n}: {}",
                outs[n].max_abs_diff(&oracle)
            );
        }
    }

    #[test]
    fn tree_matches_oracle_4way_and_5way() {
        for dims in [vec![3usize, 4, 2, 3], vec![2, 3, 2, 3, 2]] {
            let (x, factors) = build(&dims, 2, 2);
            let refs: Vec<&Matrix> = factors.iter().collect();
            let (outs, _) = mttkrp_all_modes_tree(&x, &refs);
            for n in 0..dims.len() {
                let oracle = mttkrp_reference(&x, &refs, n);
                assert!(
                    outs[n].max_abs_diff(&oracle) < 1e-10,
                    "dims {dims:?} mode {n}"
                );
            }
        }
    }

    #[test]
    fn tree_matches_oracle_2way() {
        let (x, factors) = build(&[5, 6], 3, 3);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (outs, _) = mttkrp_all_modes_tree(&x, &refs);
        for n in 0..2 {
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(outs[n].max_abs_diff(&oracle) < 1e-10);
        }
    }

    #[test]
    fn naive_matches_oracle_too() {
        let (x, factors) = build(&[4, 3, 4], 2, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (outs, _) = mttkrp_all_modes_naive(&x, &refs);
        for n in 0..3 {
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(outs[n].max_abs_diff(&oracle) < 1e-10);
        }
    }

    #[test]
    fn tree_saves_multiplies_at_order_4_plus() {
        // The reuse claim of Section VII: fewer multiplies than N
        // independent MTTKRPs.
        for dims in [vec![6usize, 6, 6, 6], vec![4, 4, 4, 4, 4]] {
            let (x, factors) = build(&dims, 3, 5);
            let refs: Vec<&Matrix> = factors.iter().collect();
            let (_, tree) = mttkrp_all_modes_tree(&x, &refs);
            let (_, naive) = mttkrp_all_modes_naive(&x, &refs);
            assert!(
                tree.muls < naive.muls,
                "dims {dims:?}: tree {} !< naive {}",
                tree.muls,
                naive.muls
            );
        }
    }

    #[test]
    fn tree_savings_grow_with_order() {
        // Ratio naive/tree multiplies should grow with N (N^2 vs ~N).
        let mut prev_ratio = 0.0;
        for order in [3usize, 4, 5, 6] {
            let dims = vec![3usize; order];
            let (x, factors) = build(&dims, 2, 6);
            let refs: Vec<&Matrix> = factors.iter().collect();
            let (_, tree) = mttkrp_all_modes_tree(&x, &refs);
            let (_, naive) = mttkrp_all_modes_naive(&x, &refs);
            let ratio = naive.muls as f64 / tree.muls as f64;
            assert!(
                ratio > prev_ratio * 0.95,
                "ratio should trend upward: N={order} ratio {ratio:.2} prev {prev_ratio:.2}"
            );
            prev_ratio = ratio;
        }
        assert!(prev_ratio > 1.5, "at N=6 the tree should win clearly");
    }

    #[test]
    fn flop_counter_consistency() {
        // Naive counter formula: N * I * R * (N-1) muls, N * I * R adds.
        let (x, factors) = build(&[3, 3, 3], 2, 7);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (_, naive) = mttkrp_all_modes_naive(&x, &refs);
        let i = 27u64;
        assert_eq!(naive.muls, 3 * i * 2 * 2);
        assert_eq!(naive.adds, 3 * i * 2);
        assert_eq!(naive.total(), naive.muls + naive.adds);
    }

    #[test]
    fn rectangular_dims_exercise_index_mapping() {
        let (x, factors) = build(&[2, 7, 3, 5], 3, 8);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (outs, _) = mttkrp_all_modes_tree(&x, &refs);
        for n in 0..4 {
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(outs[n].max_abs_diff(&oracle) < 1e-10, "mode {n}");
        }
    }
}
