//! Small dense GEMM used by the im2col convolution path, the fused
//! conv-pool MAC phase and the fully connected layers.
//!
//! Matrices are flat row-major `&[T]` slices with explicit dimensions; this
//! module stays allocation-free in its inner loops and parallelizes over
//! row blocks with rayon when the problem is large enough to amortize the
//! fork-join overhead.
//!
//! # Register tiles and bit identity
//!
//! Every output element is one serial chain of adds, so a kernel that
//! advances one element at a time runs at the FP-add latency rather than
//! at the multiplier's throughput. [`matmul_into`] instead computes an
//! `MR×NR` tile of `c` at once: the tile's accumulators live in a local
//! `[[T; NR]; MR]` (registers, once unrolled) and the tile is written to
//! `c` exactly once. Tile shapes are chosen per region so that every
//! shape keeps at least about 8 independent chains in flight:
//!
//! * `4×8` for the bulk: 32 chains, each row of `b` loaded once per 4 rows;
//! * `8×1` when `n < 8` (an im2col conv with a single output position,
//!   such as lenet's third conv): 8 rows, one chain each;
//! * `1×32` for rows left over from the 4-row bands (a batch-1 Linear):
//!   a wide strip, because `1×8` leaves too few chains to hide the latency;
//! * narrower tiles only on the ragged right and bottom edges.
//!
//! Each element keeps exactly the summation sequence of the textbook
//! loop: its accumulator starts at `+0.0` (`T::zero()`), adds
//! `a[i][p]·b[p][j]` for `p = 0, 1, …, k−1` in that order, and no multiply
//! and add are ever contracted into an FMA. Tiling only interleaves the
//! chains of *different* elements, so results are bitwise identical to the
//! scalar ikj kernel, which the tests keep as their oracle.

use crate::scalar::Scalar;
use crate::shape::Shape2;
use rayon::prelude::*;

/// Below this many output elements the serial kernel wins; measured on the
/// bench suite (`gemm_parallel_crossover`).
const PAR_THRESHOLD: usize = 64 * 64;

/// Rows per parallel task: a multiple of every band height (8 and 4), so
/// only the last block can end in a ragged band.
const PAR_ROWS: usize = 8;

/// `c = a(m×k) * b(k×n)`, row-major. Panics if slice lengths disagree with
/// the dimensions (these are internal-call-site invariants, not user input).
pub fn matmul<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<T> {
    let mut c = vec![T::zero(); m * n];
    matmul_into(a, b, &mut c, m, k, n);
    c
}

/// Allocation-free GEMM: write `a(m×k) * b(k×n)` into `c` (overwritten).
/// This is the single kernel body behind [`matmul`], the execution-plan
/// Linear/Conv ops and (through [`matmul_rows_into`]) the fused conv-pool
/// MAC, so every path is bitwise identical by construction.
pub fn matmul_into<T: Scalar>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs buffer/dim mismatch");
    assert_eq!(b.len(), k * n, "rhs buffer/dim mismatch");
    assert_eq!(c.len(), m * n, "out buffer/dim mismatch");
    gemm(a, b, |p| p * n, c, k, n);
}

/// [`matmul_into`] with the rows of `b` at arbitrary offsets: row `p` of
/// the `k×n` right-hand side is `b[b_rows[p]..b_rows[p] + n]`. Lets a
/// caller multiply by a matrix whose rows are windows of a larger buffer
/// (the fused conv-pool MAC reads its block-sum windows in place) without
/// copying them out first. Panics if a row runs past the end of `b`.
pub fn matmul_rows_into<T: Scalar>(
    a: &[T],
    b: &[T],
    b_rows: &[usize],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "lhs buffer/dim mismatch");
    assert_eq!(b_rows.len(), k, "rhs row table/dim mismatch");
    assert_eq!(c.len(), m * n, "out buffer/dim mismatch");
    gemm(a, b, |p| b_rows[p], c, k, n);
}

/// Shared driver: `c = a · B` where row `p` of `B` starts at `b[b_row(p)]`.
/// Splits over row blocks in parallel when the output is large enough.
fn gemm<T: Scalar, F: Fn(usize) -> usize + Sync>(
    a: &[T],
    b: &[T],
    b_row: F,
    c: &mut [T],
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    if c.len() >= PAR_THRESHOLD {
        c.par_chunks_mut(PAR_ROWS * n)
            .enumerate()
            .for_each(|(blk, rows)| gemm_rows(a, b, &b_row, rows, blk * PAR_ROWS, k, n));
    } else {
        gemm_rows(a, b, &b_row, c, 0, k, n);
    }
}

/// Fill `c`, the output rows starting at row `i0`, band by band: 8-row
/// bands of `8×1` tiles while `n` is too narrow for an 8-wide tile, then
/// 4-row bands, then single rows.
fn gemm_rows<T: Scalar, F: Fn(usize) -> usize>(
    a: &[T],
    b: &[T],
    b_row: &F,
    c: &mut [T],
    i0: usize,
    k: usize,
    n: usize,
) {
    let rows = c.len() / n;
    let mut i = 0;
    if n < 8 {
        while i + 8 <= rows {
            band::<T, F, 8>(a, b, b_row, c, i0, i, k, n);
            i += 8;
        }
    }
    while i + 4 <= rows {
        band::<T, F, 4>(a, b, b_row, c, i0, i, k, n);
        i += 4;
    }
    while i < rows {
        band::<T, F, 1>(a, b, b_row, c, i0, i, k, n);
        i += 1;
    }
}

/// One `MR`-row band (local rows `i..i + MR` of `c`) across all `n`
/// columns, in the widest tiles that fit: `1×32` strips for single rows,
/// then 8-, 4- and 1-wide tiles.
fn band<T: Scalar, F: Fn(usize) -> usize, const MR: usize>(
    a: &[T],
    b: &[T],
    b_row: &F,
    c: &mut [T],
    i0: usize,
    i: usize,
    k: usize,
    n: usize,
) {
    let mut j = 0;
    if MR == 1 {
        while j + 32 <= n {
            tile::<T, F, MR, 32>(a, b, b_row, c, i0, i, j, k, n);
            j += 32;
        }
    }
    while j + 8 <= n {
        tile::<T, F, MR, 8>(a, b, b_row, c, i0, i, j, k, n);
        j += 8;
    }
    while j + 4 <= n {
        tile::<T, F, MR, 4>(a, b, b_row, c, i0, i, j, k, n);
        j += 4;
    }
    while j < n {
        tile::<T, F, MR, 1>(a, b, b_row, c, i0, i, j, k, n);
        j += 1;
    }
}

/// The register tile: `c[i..i+MR][j..j+NR]` (local rows; global rows start
/// at `i0 + i`) from `MR·NR` accumulators, each starting at `+0.0` and
/// summing its products in increasing `p`.
#[inline(always)]
fn tile<T: Scalar, F: Fn(usize) -> usize, const MR: usize, const NR: usize>(
    a: &[T],
    b: &[T],
    b_row: &F,
    c: &mut [T],
    i0: usize,
    i: usize,
    j: usize,
    k: usize,
    n: usize,
) {
    let a_rows: [&[T]; MR] = std::array::from_fn(|r| &a[(i0 + i + r) * k..][..k]);
    let mut acc = [[T::zero(); NR]; MR];
    for p in 0..k {
        let b_tile: &[T; NR] = b[b_row(p) + j..][..NR].try_into().expect("NR-wide tile");
        for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
            let av = a_row[p];
            for (s, &bv) in acc_row.iter_mut().zip(b_tile) {
                *s += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        c[(i + r) * n + j..][..NR].copy_from_slice(acc_row);
    }
}

/// Out-of-place transpose of a row-major `rows×cols` matrix.
pub fn transpose<T: Scalar>(a: &[T], shape: Shape2) -> Vec<T> {
    assert_eq!(a.len(), shape.len(), "buffer/shape mismatch");
    let mut t = vec![T::zero(); a.len()];
    for i in 0..shape.rows {
        for j in 0..shape.cols {
            t[j * shape.rows + i] = a[i * shape.cols + j];
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar ikj kernel the tiles replaced, kept as the oracle: each
    /// row starts at zero and streams `row[j] += a[i][p]·b[p][j]` in
    /// increasing `p`.
    fn matmul_oracle<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<T> {
        let mut c = vec![T::zero(); m * n];
        for (i, row) in c.chunks_mut(n.max(1)).take(m).enumerate() {
            for p in 0..k {
                let aip = a[i * k + p];
                let brow = &b[p * n..(p + 1) * n];
                for (r, &bv) in row.iter_mut().zip(brow) {
                    *r += aip * bv;
                }
            }
        }
        c
    }

    /// SplitMix64 step: a deterministic value stream from one seed.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An f32 drawn to hit the awkward cases: `±0.0`, subnormals, large
    /// magnitudes whose products overflow, and ordinary values.
    fn awkward_f32(state: &mut u64) -> f32 {
        let r = splitmix(state);
        let sign = ((r >> 63) as u32) << 31;
        let mantissa = (r as u32) & 0x007f_ffff;
        match (r >> 32) % 8 {
            0 => f32::from_bits(sign),
            1 => f32::from_bits(sign | mantissa.max(1)),
            2 => f32::from_bits(sign | (0xf0 << 23) | mantissa),
            _ => ((r >> 40) % 2001) as f32 / 250.0 - 4.0,
        }
    }

    fn awkward_matrix(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed;
        (0..len).map(|_| awkward_f32(&mut state)).collect()
    }

    fn int_matrix(seed: u64, len: usize) -> Vec<i64> {
        let mut state = seed;
        (0..len)
            .map(|_| (splitmix(&mut state) % (1 << 21)) as i64 - (1 << 20))
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Oracle sweeps run `PROPTEST_CASES` cases (64 by default) natively
    /// and a handful under Miri.
    fn oracle_config() -> ProptestConfig {
        if cfg!(miri) {
            ProptestConfig::with_cases(3)
        } else {
            ProptestConfig::default()
        }
    }

    proptest! {
        #![proptest_config(oracle_config())]
        #[test]
        fn oracle_tiled_f32_is_bitwise_scalar(
            m in 0usize..=33,
            k in 0usize..=33,
            // a third of the cases are narrower than one 8-wide tile
            n in prop_oneof![0usize..=33, 0usize..8, Just(1usize)],
            seed in any::<u64>(),
        ) {
            let a = awkward_matrix(seed, m * k);
            let b = awkward_matrix(seed ^ 0x5555, k * n);
            prop_assert_eq!(
                bits(&matmul(&a, &b, m, k, n)),
                bits(&matmul_oracle(&a, &b, m, k, n)),
                "m={} k={} n={}", m, k, n
            );
        }

        #[test]
        fn oracle_row_table_f32_is_bitwise_scalar(
            m in 0usize..=33,
            k in 0usize..=33,
            n in 0usize..=33,
            slack in 0usize..40,
            seed in any::<u64>(),
        ) {
            // B's rows are windows at arbitrary (overlapping) offsets
            let pool = awkward_matrix(seed, n + slack);
            let mut state = seed;
            let rows: Vec<usize> = (0..k)
                .map(|_| (splitmix(&mut state) % (slack as u64 + 1)) as usize)
                .collect();
            let b: Vec<f32> = rows.iter().flat_map(|&r| pool[r..r + n].to_vec()).collect();
            let a = awkward_matrix(!seed, m * k);
            let mut c = vec![f32::NAN; m * n];
            matmul_rows_into(&a, &pool, &rows, &mut c, m, k, n);
            prop_assert_eq!(
                bits(&c),
                bits(&matmul_oracle(&a, &b, m, k, n)),
                "m={} k={} n={}", m, k, n
            );
        }

        #[test]
        fn oracle_tiled_i64_is_exact(
            m in 0usize..=33,
            k in 0usize..=33,
            n in 0usize..=33,
            seed in any::<u64>(),
        ) {
            let a = int_matrix(seed, m * k);
            let b = int_matrix(seed.rotate_left(17), k * n);
            prop_assert_eq!(matmul(&a, &b, m, k, n), matmul_oracle(&a, &b, m, k, n));
        }
    }

    #[test]
    fn matmul_2x2_known() {
        // |1 2| |5 6|   |19 22|
        // |3 4| |7 8| = |43 50|
        let c = matmul(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2, 2, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        assert_eq!(matmul(&a, &eye, 4, 3, 3), a);
    }

    #[test]
    fn matmul_rectangular() {
        // 1x3 * 3x2
        let c = matmul(&[1.0, 2.0, 3.0], &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0], 1, 3, 2);
        assert_eq!(c, vec![14.0, 32.0]);
    }

    #[test]
    fn matmul_integer_exact() {
        let a: Vec<i64> = (1..=6).collect(); // 2x3
        let b: Vec<i64> = (1..=6).collect(); // 3x2
        assert_eq!(matmul(&a, &b, 2, 3, 2), vec![22, 28, 49, 64]);
    }

    #[test]
    fn empty_inner_dimension_writes_zeros() {
        let mut c = vec![f32::NAN; 6];
        matmul_into::<f32>(&[], &[], &mut c, 2, 0, 3);
        assert!(c.iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Force the parallel path (row blocks, with a ragged last block)
        // and compare bitwise against the scalar oracle.
        let (m, k, n) = if cfg!(miri) {
            (67, 3, 64)
        } else {
            (83, 80, 80)
        };
        let a = awkward_matrix(7, m * k);
        let b = awkward_matrix(11, k * n);
        assert!(m * n >= PAR_THRESHOLD);
        assert_eq!(
            bits(&matmul(&a, &b, m, k, n)),
            bits(&matmul_oracle(&a, &b, m, k, n))
        );
    }

    #[test]
    fn transpose_involution() {
        let a: Vec<f32> = (0..6).map(|v| v as f32).collect();
        let t = transpose(&a, Shape2::new(2, 3));
        assert_eq!(t, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        let tt = transpose(&t, Shape2::new(3, 2));
        assert_eq!(tt, a);
    }

    #[test]
    #[should_panic(expected = "lhs buffer/dim mismatch")]
    fn matmul_panics_on_bad_dims() {
        let _ = matmul(&[1.0_f32; 3], &[1.0; 4], 2, 2, 2);
    }
}
