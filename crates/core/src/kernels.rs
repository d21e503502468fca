//! The local MTTKRP kernel: the "local computation" of Algorithms 3/4
//! (Line 6 / Line 7) and of CP-ALS, and the one kernel under every backend.
//! The native backend partitions a tensor over its pool and runs
//! [`LocalKernel`] on each piece; the simulated `par` replays, the dist
//! ranks and core's CP-ALS run [`local_mttkrp`], one single-threaded pass
//! of the same walk, so dist and sim agree bitwise by construction.
//! [`local_mttkrp_twostep`] is the explicit Khatri-Rao variant of Section
//! V-C3. The atomic `N`-ary multiply of Definition 2.1 survives only in
//! memsim's Algorithm 2 (`seq`, which reproduces Eq. (12)) and in the
//! [`mttkrp_tensor::mttkrp_reference`] oracle.
//!
//! The walk goes over *mode-0 runs* `X(:, i_1, …, i_{N-1})`, which are
//! contiguous and share one Hadamard row `w = ∘_{k ∉ {0, n}} A^(k)(i_k, :)`.
//! For `n = 0` entry `i_0` adds `x·w` to output row `i_0`, four runs per
//! pass over the output rows. For `n ≠ 0` a run has one output row, so it
//! reduces to the GEMV `t = X(run)ᵀ·A^(0)(run, :)` and `t ∘ w` is added
//! once: the partial-product reuse of Section V-C3 (Eq. (17)) inside the
//! kernel, one multiply-add per entry-rank.
//!
//! Cache tiling: a last-mode slab is walked in `b`-edge blocks (Algorithm 2
//! style, with the rank-aware Eq. (11) budget of [`native_tile`]). A flat
//! entry range is streamed run by run or, once the mode-0 factor outgrows
//! a per-core cache ([`FLAT_BLOCK_MIN_FACTOR_WORDS`]), walked in `b x b`
//! bands of whole runs with cached Hadamard rows.

use crate::seq;
use mttkrp_tensor::{khatri_rao_colex, matricize, DenseTensor, Matrix};
use std::ops::Range;

/// Default fast-memory capacity when nothing better is known: 2^21 words
/// (16 MiB of `f64`), a typical shared last-level cache slice. The
/// planner's default machine and [`local_mttkrp`]'s tile both use it.
pub const DEFAULT_CACHE_WORDS: usize = 1 << 21;

/// The largest block edge `b >= 1` with `b^order + order*b*rank <= m`
/// ([`seq::choose_block_size_with_rank`], the rank-aware analogue of
/// Eq. (11)): each of the `order` factor sub-blocks held in cache is
/// `b x rank` words. Unlike the `seq` helper this never panics — a cache
/// too small for any tile just degrades to `b = 1`.
pub fn native_tile(m: usize, order: usize, rank: usize) -> usize {
    match order.checked_mul(rank).and_then(|f| f.checked_add(1)) {
        Some(min_words) if m >= min_words => seq::choose_block_size_with_rank(m, order, rank),
        _ => 1,
    }
}

/// The mode-0 factor footprint (in words) above which the flat walk
/// switches from run-by-run streaming to the blocked (`b`-edge) walk.
///
/// Streaming re-reads `A^(0)` top to bottom for every run: when
/// `I_0 x R` fits a per-core cache that costs nothing (and the perfectly
/// sequential tensor walk prefetches best), but once the factor spills,
/// every run re-streams it from memory — `R` times the tensor's own
/// traffic. Half a MiB (2^16 words) is a conservative per-core-L2-sized
/// threshold for "it spilled": below it blocking is noise-to-slightly-
/// negative, above it measured wins are 20%+ and grow with `I_0` (see the
/// `native_flat` group of the `exec_backends` bench).
pub const FLAT_BLOCK_MIN_FACTOR_WORDS: usize = 1 << 16;

/// Runs (for `n == 0`) or `A^(0)` rows (for `n != 0`) folded into one pass
/// over an accumulator row; the inner loops are unrolled for exactly this
/// many.
const GROUP: usize = 4;

/// Tiled MTTKRP over pieces of one tensor: the operands, output mode, tile
/// edge and rank shared by every piece. A caller partitions the tensor
/// into last-mode slabs ([`Self::accumulate_slab`]) or flat entry ranges
/// ([`Self::accumulate_flat`]) and sums the pieces' outputs; `factors[n]`
/// is ignored.
pub struct LocalKernel<'a> {
    x: &'a DenseTensor,
    factors: &'a [&'a Matrix],
    n: usize,
    tile: usize,
    r: usize,
}

impl<'a> LocalKernel<'a> {
    /// Validates the operands and tiles for [`DEFAULT_CACHE_WORDS`].
    pub fn new(x: &'a DenseTensor, factors: &'a [&'a Matrix], n: usize) -> LocalKernel<'a> {
        let r = mttkrp_tensor::validate_operands(x, factors, n);
        LocalKernel {
            x,
            factors,
            n,
            tile: native_tile(DEFAULT_CACHE_WORDS, x.order(), r),
            r,
        }
    }

    /// The same kernel with block edge `tile` (clamped to at least 1).
    pub fn with_tile(self, tile: usize) -> LocalKernel<'a> {
        LocalKernel {
            tile: tile.max(1),
            ..self
        }
    }

    /// Accumulates the MTTKRP contribution of one contiguous last-mode slab
    /// (last-mode indices `[j0, j0 + depth)`) into `out`, a row-major
    /// `r`-column buffer indexed by `global_output_row - out_row0`.
    pub fn accumulate_slab(&self, j0: usize, slab: &[f64], out: &mut [f64], out_row0: usize) {
        let shape = self.x.shape();
        let order = shape.order();
        let last = order - 1;
        let strides = shape.strides();
        let tile = self.tile;

        // The slab's iteration space in global indices (full in every mode
        // but the last) and the per-mode tile counts.
        let mut start = vec![0usize; order];
        start[last] = j0;
        let mut end = shape.dims().to_vec();
        end[last] = j0 + slab.len() / self.x.last_mode_slab_len();
        let ntiles: Vec<usize> = (0..order)
            .map(|k| (end[k] - start[k]).div_ceil(tile))
            .collect();
        let total_tiles: usize = ntiles.iter().product();
        let slab_base = j0 * strides[last];

        let mut lo = vec![0usize; order];
        let mut hi = vec![0usize; order];
        let mut idx = vec![0usize; order];
        let r = self.r;
        let mut t = vec![0.0f64; r];
        // Up to `GROUP` runs of the current tile, flushed together.
        let mut runs = [(0usize, 0usize); GROUP];
        let mut ws = vec![0.0f64; GROUP * r];
        let mut pending = 0;

        for tn in 0..total_tiles {
            let mut tt = tn;
            for k in 0..order {
                let tk = tt % ntiles[k];
                tt /= ntiles[k];
                lo[k] = start[k] + tk * tile;
                hi[k] = (lo[k] + tile).min(end[k]);
            }
            idx.copy_from_slice(&lo);
            loop {
                self.run_weights(&idx, &mut ws[pending * r..(pending + 1) * r]);
                // Slab offset of (0, idx[1], ..., idx[N-1]).
                let base = (1..order).map(|k| idx[k] * strides[k]).sum::<usize>() - slab_base;
                let row = if self.n == 0 { lo[0] } else { idx[self.n] } - out_row0;
                runs[pending] = (base, row);
                pending += 1;
                if pending == GROUP {
                    self.add_runs(slab, &runs, &ws, lo[0]..hi[0], out, &mut t);
                    pending = 0;
                }

                // Odometer over modes 1..N within the tile.
                let mut k = 1;
                while k < order {
                    idx[k] += 1;
                    if idx[k] < hi[k] {
                        break;
                    }
                    idx[k] = lo[k];
                    k += 1;
                }
                if k >= order {
                    break;
                }
            }
            self.add_runs(slab, &runs[..pending], &ws, lo[0]..hi[0], out, &mut t);
            pending = 0;
        }
    }

    /// Accumulates the MTTKRP contribution of the flat entry range
    /// `[lo, hi)` of the tensor's colex data into `out`, a row-major
    /// `I_n x r` buffer.
    ///
    /// With `tile <= 1`, or a mode-0 factor below
    /// [`FLAT_BLOCK_MIN_FACTOR_WORDS`], the range is streamed run by run;
    /// otherwise the complete mode-0 runs inside the range are walked in
    /// `b`-edge blocks — the same cache treatment the slab walk gets — with
    /// any partial head/tail run streamed.
    pub fn accumulate_flat(&self, lo: usize, hi: usize, out: &mut [f64]) {
        let i0 = self.x.shape().dim(0);
        if self.tile <= 1 || i0.saturating_mul(self.r) < FLAT_BLOCK_MIN_FACTOR_WORDS {
            return self.accumulate_flat_streamed(lo, hi, out);
        }
        // Split the range into a partial head run, whole runs, and a
        // partial tail run; only whole runs go through the blocked walk.
        let head_end = lo.next_multiple_of(i0).min(hi);
        let tail_start = (hi / i0 * i0).max(head_end);
        self.accumulate_flat_streamed(lo, head_end, out);
        self.accumulate_flat_blocked(head_end / i0, tail_start / i0, out);
        self.accumulate_flat_streamed(tail_start, hi, out);
    }

    /// Blocked (`b`-edge) walk over the whole mode-0 runs with *rest*
    /// indices (the colex linearization of modes `1..N`) in `[rlo, rhi)`.
    ///
    /// The run space is tiled on both axes: `tile` runs share one residency
    /// of each `tile x r` block of `A^(0)` (and, for `n == 0`, of the
    /// output), and the Hadamard row of every run in the band is computed
    /// once and cached. Residency is `2*b*R` words, within the budget of
    /// the Eq. (11)-style tile (`b^N + N*b*R <= M` with `N >= 2`).
    fn accumulate_flat_blocked(&self, rlo: usize, rhi: usize, out: &mut [f64]) {
        let (shape, r, tile) = (self.x.shape(), self.r, self.tile);
        let i0 = shape.dim(0);
        let data = self.x.data();

        let mut idx = vec![0usize; shape.order()];
        let mut t = vec![0.0f64; r];
        // Per-band caches: one Hadamard row and one (base, output row)
        // pair per run in the band.
        let mut wband = vec![0.0f64; tile * r];
        let mut runs = vec![(0usize, 0usize); tile];

        let mut band = rlo;
        while band < rhi {
            let bandw = tile.min(rhi - band);
            for b in 0..bandw {
                shape.delinearize_into((band + b) * i0, &mut idx);
                self.run_weights(&idx, &mut wband[b * r..(b + 1) * r]);
                runs[b] = ((band + b) * i0, idx[self.n]);
            }
            let mut b0 = 0;
            while b0 < i0 {
                let b1 = (b0 + tile).min(i0);
                if self.n == 0 {
                    runs[..bandw].iter_mut().for_each(|run| run.1 = b0);
                }
                self.add_runs(data, &runs[..bandw], &wband, b0..b1, out, &mut t);
                b0 = b1;
            }
            band += bandw;
        }
    }

    /// Streams the flat entry range `[lo, hi)` in mode-0 runs, one
    /// Hadamard row per run. The untiled baseline of the flat walk (and
    /// the handler for partial runs at blocked-range boundaries).
    fn accumulate_flat_streamed(&self, lo: usize, hi: usize, out: &mut [f64]) {
        let shape = self.x.shape();
        let i0 = shape.dim(0);
        let data = self.x.data();
        let mut idx = vec![0usize; shape.order()];
        let mut w = vec![0.0f64; self.r];
        let mut t = vec![0.0f64; self.r];

        let mut lin = lo;
        while lin < hi {
            shape.delinearize_into(lin, &mut idx);
            let run = (i0 - idx[0]).min(hi - lin);
            self.run_weights(&idx, &mut w);
            let row = if self.n == 0 { idx[0] } else { idx[self.n] };
            let runs = [(lin - idx[0], row)];
            self.add_runs(data, &runs, &w, idx[0]..idx[0] + run, out, &mut t);
            lin += run;
        }
    }

    /// `w` = the Hadamard product of the factor rows `A^(k)(idx[k], :)` for
    /// every mode `k ∉ {0, n}`: constant along a mode-0 run.
    fn run_weights(&self, idx: &[usize], w: &mut [f64]) {
        w.fill(1.0);
        for (k, f) in self.factors.iter().enumerate().skip(1) {
            if k != self.n {
                for (wv, &a) in w.iter_mut().zip(f.row(idx[k])) {
                    *wv *= a;
                }
            }
        }
    }

    /// Adds mode-0 runs over the same `i0` range `span`. Run `j` is
    /// `runs[j] = (base, row)`: its entries are `data[base + i]` for `i` in
    /// `span` and its Hadamard row is `ws[j*r..(j+1)*r]`. For `n == 0`,
    /// entry `i` adds to `out` row `row + i - span.start` (the same rows for
    /// every run), [`GROUP`] runs per pass over those rows. Otherwise each
    /// run reduces to the GEMV `t = X(run)ᵀ·A^(0)(span, :)`, [`GROUP`] rows
    /// of `A^(0)` per pass over `t`, and `t ∘ w` is added to row `row`. `t`
    /// is scratch of length `r`.
    fn add_runs(
        &self,
        data: &[f64],
        runs: &[(usize, usize)],
        ws: &[f64],
        span: Range<usize>,
        out: &mut [f64],
        t: &mut [f64],
    ) {
        let (r, a, b) = (self.r, span.start, span.end);
        if self.n == 0 {
            let Some(&(_, row)) = runs.first() else {
                return;
            };
            let rows = &mut out[row * r..(row + b - a) * r];
            let whole = runs.len() / GROUP * GROUP;
            for (g, w4) in runs.chunks_exact(GROUP).zip(ws.chunks_exact(GROUP * r)) {
                for (i, orow) in (a..b).zip(rows.chunks_exact_mut(r)) {
                    fold_rows(orow, std::array::from_fn(|j| data[g[j].0 + i]), w4);
                }
            }
            for (&(base, _), w) in runs[whole..].iter().zip(ws[whole * r..].chunks_exact(r)) {
                for (&xv, orow) in data[base + a..base + b]
                    .iter()
                    .zip(rows.chunks_exact_mut(r))
                {
                    axpy_row(orow, xv, w);
                }
            }
        } else {
            let a0 = &self.factors[0].data()[a * r..b * r];
            let whole = (b - a) / GROUP * GROUP;
            for (&(base, row), w) in runs.iter().zip(ws.chunks_exact(r)) {
                let xs = &data[base + a..base + b];
                t.fill(0.0);
                for (a4, x) in a0.chunks_exact(GROUP * r).zip(xs.chunks_exact(GROUP)) {
                    fold_rows(t, std::array::from_fn(|j| x[j]), a4);
                }
                for (arow, &xv) in a0[whole * r..].chunks_exact(r).zip(&xs[whole..]) {
                    axpy_row(t, xv, arow);
                }
                for ((o, &tv), &wv) in out[row * r..(row + 1) * r].iter_mut().zip(&*t).zip(w) {
                    *o += tv * wv;
                }
            }
        }
    }
}

/// `acc += Σ_j x[j] · rows[j*r..(j+1)*r]` over the [`GROUP`] rows packed
/// in `rows`, with `r = acc.len()`: one load and store of `acc` per group.
#[inline(always)]
fn fold_rows(acc: &mut [f64], x: [f64; GROUP], rows: &[f64]) {
    let r = acc.len();
    let (p, rest) = rows.split_at(r);
    let (q, rest) = rest.split_at(r);
    let (u, v) = rest.split_at(r);
    for ((((o, &p), &q), &u), &v) in acc.iter_mut().zip(p).zip(q).zip(u).zip(v) {
        *o += x[0] * p + x[1] * q + x[2] * u + x[3] * v;
    }
}

/// `acc += x · row`.
#[inline(always)]
fn axpy_row(acc: &mut [f64], x: f64, row: &[f64]) {
    for (o, &v) in acc.iter_mut().zip(row) {
        *o += x * v;
    }
}

/// Local MTTKRP `B = X_(n) · (⊙_{k≠n} A^(k))`: one single-threaded pass of
/// the [`LocalKernel`] walk over the whole tensor, tiled for
/// [`DEFAULT_CACHE_WORDS`]. `factors[n]` is ignored.
pub fn local_mttkrp(x: &DenseTensor, factors: &[&Matrix], n: usize) -> Matrix {
    let kernel = LocalKernel::new(x, factors, n);
    let mut b = Matrix::zeros(x.shape().dim(n), factors[0].cols());
    kernel.accumulate_slab(0, x.data(), b.data_mut(), 0);
    b
}

/// Two-step local MTTKRP (paper Section V-C3, Eq. (17)): forms the explicit
/// Khatri-Rao product and multiplies, `B = X_(n) * KRP`. Breaks the atomic
/// `N`-ary multiply assumption but computes the same values with
/// `~2 |X| R` flops instead of `N |X| R`.
pub fn local_mttkrp_twostep(x: &DenseTensor, factors: &[&Matrix], n: usize) -> Matrix {
    mttkrp_tensor::validate_operands(x, factors, n);
    let unfolded = matricize(x, n);
    let others: Vec<&Matrix> = factors
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != n)
        .map(|(_, &f)| f)
        .collect();
    let krp = khatri_rao_colex(&others);
    unfolded.matmul(&krp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_tensor::{mttkrp_reference, Shape};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape.clone(), seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 20 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn fast_kernel_matches_oracle() {
        let (x, factors) = setup(&[5, 4, 3], 3, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let fast = local_mttkrp(&x, &refs, n);
            let slow = mttkrp_reference(&x, &refs, n);
            assert!(fast.max_abs_diff(&slow) < 1e-11, "mode {n}");
        }
    }

    #[test]
    fn twostep_matches_oracle() {
        let (x, factors) = setup(&[4, 3, 5, 2], 2, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..4 {
            let two = local_mttkrp_twostep(&x, &refs, n);
            let slow = mttkrp_reference(&x, &refs, n);
            assert!(two.max_abs_diff(&slow) < 1e-10, "mode {n}");
        }
    }

    #[test]
    fn order2_kernels_agree() {
        let (x, factors) = setup(&[7, 6], 4, 5);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..2 {
            let a = local_mttkrp(&x, &refs, n);
            let b = local_mttkrp_twostep(&x, &refs, n);
            assert!(a.max_abs_diff(&b) < 1e-11);
        }
    }
}
