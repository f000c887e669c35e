//! The fused convolution–pooling operator (paper Section IV, Algorithm 1).
//!
//! After reordering, `conv → avg-pool → ReLU` is a linear pipeline up to
//! the final activation, so the pooling sum can be pushed *through* the
//! convolution: with a `p × p` (stride `p`) average pool over a stride-`S`
//! convolution,
//!
//! ```text
//! p²·P[x,y] = Σ_{i,j} W[i,j] · G[p·x·S + i][p·y·S + j]
//! G[a][b]   = Σ_{dy<p} Σ_{dx<p} I[a + dy·S][b + dx·S]
//! ```
//!
//! The kernel therefore runs Algorithm 1's three phases:
//! 1. **half addition** — vertical `p`-sums `HA[a][b] = Σ_dy I[a+dy·S][b]`;
//! 2. **full addition** — horizontal combine `G[a][b] = Σ_dx HA[a][b+dx·S]`
//!    (the LAR/GAR-shared block-sum plane);
//! 3. **MAC** — one multiplication per weight per *pooled* output (RME:
//!    `1 − 1/p²` of the dense multiplications are gone), followed by the
//!    preprocessing unit's divide-by-`p²`, bias add and ReLU.
//!
//! Functional equivalence with `relu(avg_pool(conv(x)))` is exact in
//! integer arithmetic (modulo the deferred division, see
//! [`FusedConvPool::with_divide`]) and within rounding noise at `f32`.

use mlcnn_tensor::conv::conv2d_direct;
use mlcnn_tensor::linalg::matmul_rows_into;
use mlcnn_tensor::pool::{avg_pool2d, sum_pool2d};
use mlcnn_tensor::{Result, Scalar, Shape4, Tensor, TensorError};
use rayon::prelude::*;

/// Geometry of a fused conv-pool layer, all derived quantities included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedGeometry {
    /// Input spatial height/width (pre padding).
    pub in_h: usize,
    /// Input spatial width.
    pub in_w: usize,
    /// Kernel extent.
    pub k: usize,
    /// Convolution stride.
    pub conv_stride: usize,
    /// Zero padding.
    pub pad: usize,
    /// Pool window == pool stride.
    pub pool: usize,
    /// Conv output height.
    pub conv_h: usize,
    /// Conv output width.
    pub conv_w: usize,
    /// Pooled output height.
    pub out_h: usize,
    /// Pooled output width.
    pub out_w: usize,
}

impl FusedGeometry {
    /// Derive and validate the geometry.
    pub fn new(
        in_h: usize,
        in_w: usize,
        k: usize,
        conv_stride: usize,
        pad: usize,
        pool: usize,
    ) -> Result<Self> {
        if conv_stride == 0 || pool == 0 || k == 0 {
            return Err(TensorError::BadGeometry {
                reason: "fused geometry requires nonzero kernel/stride/pool".into(),
            });
        }
        let padded_h = in_h + 2 * pad;
        let padded_w = in_w + 2 * pad;
        if k > padded_h || k > padded_w {
            return Err(TensorError::BadGeometry {
                reason: format!("kernel {k} exceeds padded input {padded_h}x{padded_w}"),
            });
        }
        let conv_h = (padded_h - k) / conv_stride + 1;
        let conv_w = (padded_w - k) / conv_stride + 1;
        if pool > conv_h || pool > conv_w {
            return Err(TensorError::BadGeometry {
                reason: format!("pool {pool} exceeds conv output {conv_h}x{conv_w}"),
            });
        }
        Ok(Self {
            in_h,
            in_w,
            k,
            conv_stride,
            pad,
            pool,
            conv_h,
            conv_w,
            out_h: (conv_h - pool) / pool + 1,
            out_w: (conv_w - pool) / pool + 1,
        })
    }

    /// Block-sum plane `G` extent `(g_h, g_w)`: the padded input minus the
    /// pool window's span `(p − 1)·S` in each direction.
    fn g_dims(&self) -> (usize, usize) {
        let span = (self.pool - 1) * self.conv_stride;
        (
            self.in_h + 2 * self.pad - span,
            self.in_w + 2 * self.pad - span,
        )
    }

    /// Extent `(rows, cols)` of one phase plane: `G` split by row and
    /// column index mod `p·S` (the stride between pooled outputs in `G`).
    fn phase_dims(&self) -> (usize, usize) {
        let step = self.pool * self.conv_stride;
        let (g_h, g_w) = self.g_dims();
        (g_h.div_ceil(step), g_w.div_ceil(step))
    }

    /// Columns of the fused MAC's output: pooled row `x` starts at column
    /// `x · phase_cols`, so the `phase_cols − out_w` columns between rows
    /// are computed and dropped.
    fn mac_cols(&self) -> usize {
        (self.out_h - 1) * self.phase_dims().1 + self.out_w
    }
}

/// Reusable scratch buffers for the fused kernel: the zero-padded input
/// plane, the half-addition plane, the per-channel block-sum (`G`) planes,
/// their phase split, the MAC's row table and its raw sums. Create once
/// (or via `Workspace::for_plan`), reuse across calls —
/// [`FusedConvPool::forward_item_into`] only grows the buffers when a
/// larger geometry arrives, so steady-state execution is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct FusedScratch<T> {
    padded: Vec<T>,
    ha: Vec<T>,
    g: Vec<T>,
    phased: Vec<T>,
    rows: Vec<usize>,
    sums: Vec<T>,
}

impl<T: Scalar> FusedScratch<T> {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            padded: Vec::new(),
            ha: Vec::new(),
            g: Vec::new(),
            phased: Vec::new(),
            rows: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Grow the buffers to cover `geom` with `channels` input and
    /// `out_channels` output channels. Never shrinks, so one scratch
    /// serves every fused layer of a network.
    pub fn ensure(&mut self, geom: &FusedGeometry, channels: usize, out_channels: usize) {
        let (ph, pw) = (geom.in_h + 2 * geom.pad, geom.in_w + 2 * geom.pad);
        let (g_h, g_w) = geom.g_dims();
        let (phase_h, phase_w) = geom.phase_dims();
        let step = geom.pool * geom.conv_stride;
        grow(&mut self.padded, ph * pw, T::zero());
        // both LAR orientations need at most a padded-plane's worth of HA
        grow(&mut self.ha, ph * pw, T::zero());
        grow(&mut self.g, channels * g_h * g_w, T::zero());
        grow(
            &mut self.phased,
            channels * step * step * phase_h * phase_w,
            T::zero(),
        );
        grow(&mut self.rows, channels * geom.k * geom.k, 0);
        grow(&mut self.sums, out_channels * geom.mac_cols(), T::zero());
    }
}

/// Resize `v` up to `len` (never down).
fn grow<V: Clone>(v: &mut Vec<V>, len: usize, fill: V) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

/// The fused operator: weights + bias + geometry knobs.
#[derive(Debug, Clone)]
pub struct FusedConvPool<T = f32> {
    weight: Tensor<T>,
    bias: Vec<T>,
    conv_stride: usize,
    pad: usize,
    pool: usize,
    relu: bool,
    divide: bool,
    row_based: bool,
}

impl<T: Scalar> FusedConvPool<T> {
    /// Create a fused layer. `weight` is `M×N×K×K` (square kernels),
    /// `bias` one entry per output channel, `pool` the non-overlapping
    /// average-pool window that follows the convolution.
    pub fn new(
        weight: Tensor<T>,
        bias: Vec<T>,
        conv_stride: usize,
        pad: usize,
        pool: usize,
    ) -> Result<Self> {
        let w = weight.shape();
        if w.h != w.w {
            return Err(TensorError::BadGeometry {
                reason: format!("square kernels only, got {}x{}", w.h, w.w),
            });
        }
        if bias.len() != w.n {
            return Err(TensorError::BadGeometry {
                reason: format!("bias length {} != out channels {}", bias.len(), w.n),
            });
        }
        Ok(Self {
            weight,
            bias,
            conv_stride,
            pad,
            pool,
            relu: true,
            divide: true,
            row_based: false,
        })
    }

    /// Toggle the trailing ReLU (on by default).
    pub fn with_relu(mut self, relu: bool) -> Self {
        self.relu = relu;
        self
    }

    /// Toggle the divide-by-`p²` (on by default). Disable for exact
    /// integer-arithmetic equivalence against sum-pooling.
    pub fn with_divide(mut self, divide: bool) -> Self {
        self.divide = divide;
        self
    }

    /// Select row-based LAR (half additions over rows first, then the
    /// vertical combine) instead of the default column-based order. The
    /// paper notes "row-based LAR works in a similar way"; the two
    /// orientations produce identical block sums — property-tested
    /// bit-exactly in integer arithmetic — and differ only in which
    /// operand stream the AR unit's registers hold.
    pub fn with_row_based_lar(mut self, row_based: bool) -> Self {
        self.row_based = row_based;
        self
    }

    /// Pool window accessor.
    pub fn pool(&self) -> usize {
        self.pool
    }

    /// Baked weight tensor (`M×N×K×K`).
    pub fn weight(&self) -> &Tensor<T> {
        &self.weight
    }

    /// Baked bias, one entry per output channel.
    pub fn bias(&self) -> &[T] {
        &self.bias
    }

    /// Whether the fused group ends in ReLU.
    pub fn relu(&self) -> bool {
        self.relu
    }

    /// Convolution stride.
    pub fn conv_stride(&self) -> usize {
        self.conv_stride
    }

    /// Zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Derived geometry for an input shape.
    pub fn geometry(&self, input: Shape4) -> Result<FusedGeometry> {
        FusedGeometry::new(
            input.h,
            input.w,
            self.weight.shape().h,
            self.conv_stride,
            self.pad,
            self.pool,
        )
    }

    /// Output shape for an input shape.
    pub fn out_shape(&self, input: Shape4) -> Result<Shape4> {
        let g = self.geometry(input)?;
        Ok(Shape4::new(
            input.n,
            self.weight.shape().n,
            g.out_h,
            g.out_w,
        ))
    }

    /// Build the block-sum plane `G` for one padded input plane.
    ///
    /// Writes a `(g_h × gw)` row-major buffer where
    /// `G[a][b] = Σ_{dy,dx<p} padded[a+dy·S][b+dx·S]`, computed through the
    /// half-addition plane exactly as the AR unit does — column-based
    /// (vertical HA, horizontal combine) by default, or the row-based
    /// orientation when selected. Each element starts from its first
    /// operand and adds the rest in `dy`/`dx` order; the loops run a whole
    /// row at a time so they vectorize.
    fn block_sum_plane_into(&self, padded: &[T], ph: usize, pw: usize, ha: &mut [T], g: &mut [T]) {
        let p = self.pool;
        let s = self.conv_stride;
        let span = (p - 1) * s;
        let g_h = ph - span;
        let gw = pw - span;
        debug_assert!(g.len() >= g_h * gw);
        debug_assert!(ha.len() >= ph * pw);
        let g_rows = g.chunks_exact_mut(gw).take(g_h);
        if self.row_based {
            // phase 1: half additions over rows (horizontal p-sums)
            for (row, ha_row) in padded.chunks_exact(pw).zip(ha.chunks_exact_mut(gw)) {
                window_sum(ha_row, p, |dx| &row[dx * s..]);
            }
            // phase 2: vertical combine
            for (a, g_row) in g_rows.enumerate() {
                window_sum(g_row, p, |dy| &ha[(a + dy * s) * gw..]);
            }
            return;
        }
        // HA spans the full padded width; G's valid width is pw - span
        for (a, (ha_row, g_row)) in ha.chunks_exact_mut(pw).zip(g_rows).enumerate() {
            // phase 1: half additions (vertical p-sums at spacing S)
            window_sum(ha_row, p, |dy| &padded[(a + dy * s) * pw..]);
            // phase 2: full additions (horizontal combine at spacing S)
            let ha_row = &*ha_row;
            window_sum(g_row, p, |dx| &ha_row[dx * s..]);
        }
    }

    /// Run the fused operator on one batch item laid out as a raw
    /// `c × in_h × in_w` slice, writing the `out_ch × out_h × out_w` result
    /// into `dst`. All temporaries come from `scratch`, which is grown on
    /// first use and reused thereafter — the execution plan's zero-
    /// allocation steady state. Arithmetic is identical to [`Self::forward`]
    /// (which delegates here per item), so the two are bitwise equal.
    ///
    /// Phase 3 runs as one register-tiled GEMM, `weight(out_ch × c·K·K)`
    /// times a right-hand side whose row `(ti, i, j)` holds tap `(i, j)`
    /// of every pooled output's window in `G_ti`. Pooled outputs sit
    /// `p·S` apart in `G`, so each `G` plane is first split by row and
    /// column phase mod `p·S`; in a phase plane one tap's windows are then
    /// consecutive, and the GEMM reads them in place through a row-offset
    /// table. It is still one multiplication per weight per pooled output,
    /// and every output keeps its own accumulator summing in `(ti, i, j)`
    /// order from `+0.0`, exactly as the textbook per-output loop.
    pub fn forward_item_into(
        &self,
        item: &[T],
        geom: &FusedGeometry,
        dst: &mut [T],
        scratch: &mut FusedScratch<T>,
    ) {
        let wshape = self.weight.shape();
        let (channels, k) = (wshape.c, geom.k);
        let (out_h, out_w) = (geom.out_h, geom.out_w);
        assert_eq!(item.len(), channels * geom.in_h * geom.in_w);
        assert_eq!(dst.len(), wshape.n * out_h * out_w);
        scratch.ensure(geom, channels, wshape.n);
        self.block_sums_into(item, geom, scratch);
        // phase 3a: G_ti[a][b] -> phase plane (ti, a mod p·S, b mod p·S),
        // row a / p·S, column b / p·S
        let step = self.pool * self.conv_stride;
        let (g_h, g_w) = geom.g_dims();
        let (phase_h, phase_w) = geom.phase_dims();
        let phase_len = phase_h * phase_w;
        let g_planes = scratch.g.chunks_exact(g_h * g_w).take(channels);
        for (ti, g_plane) in g_planes.enumerate() {
            for (a, g_row) in g_plane.chunks_exact(g_w).enumerate() {
                for phi in 0..step.min(g_w) {
                    let plane = (ti * step + a % step) * step + phi;
                    let start = plane * phase_len + (a / step) * phase_w;
                    let dst_row = &mut scratch.phased[start..start + phase_w];
                    for (d, &v) in dst_row.iter_mut().zip(g_row[phi..].iter().step_by(step)) {
                        *d = v;
                    }
                }
            }
        }
        // phase 3b: MAC over the factored weights. Tap (ti, i, j) of pooled
        // output (x, y) is G_ti[x·p·S + i][y·p·S + j], i.e. element
        // (x + i / p·S, y + j / p·S) of phase plane (ti, i mod p·S, j mod p·S).
        let taps = channels * k * k;
        for (t, row) in scratch.rows[..taps].iter_mut().enumerate() {
            let (ti, i, j) = (t / (k * k), t / k % k, t % k);
            let plane = (ti * step + i % step) * step + j % step;
            *row = plane * phase_len + (i / step) * phase_w + j / step;
        }
        let n = geom.mac_cols();
        let sums = &mut scratch.sums[..wshape.n * n];
        matmul_rows_into(
            self.weight.as_slice(),
            &scratch.phased,
            &scratch.rows[..taps],
            sums,
            wshape.n,
            taps,
            n,
        );
        // preprocessing: /p², bias, activation — dropping the columns
        // between pooled rows
        let inv_area = T::one() / T::from_f32((self.pool * self.pool) as f32);
        let out_planes = dst.chunks_exact_mut(out_h * out_w);
        for ((out_plane, plane_sums), &bias) in out_planes.zip(sums.chunks_exact(n)).zip(&self.bias)
        {
            for (x, out_row) in out_plane.chunks_exact_mut(out_w).enumerate() {
                for (o, &acc) in out_row.iter_mut().zip(&plane_sums[x * phase_w..]) {
                    let mut v = if self.divide { acc * inv_area } else { acc };
                    v += bias;
                    if self.relu {
                        v = v.relu();
                    }
                    *o = v;
                }
            }
        }
    }

    /// Phases 1 and 2 for every input channel: zero-pad the plane into
    /// scratch and build its block-sum plane `G` in `scratch.g`.
    fn block_sums_into(&self, item: &[T], geom: &FusedGeometry, scratch: &mut FusedScratch<T>) {
        let (ph, pw) = (geom.in_h + 2 * geom.pad, geom.in_w + 2 * geom.pad);
        let (g_h, g_w) = geom.g_dims();
        let plane_len = geom.in_h * geom.in_w;
        let g_planes = scratch.g.chunks_exact_mut(g_h * g_w);
        for (c, g_plane) in g_planes.take(self.weight.shape().c).enumerate() {
            let plane = &item[c * plane_len..(c + 1) * plane_len];
            if geom.pad == 0 {
                self.block_sum_plane_into(plane, ph, pw, &mut scratch.ha, g_plane);
                continue;
            }
            let padded = &mut scratch.padded[..ph * pw];
            padded.fill(T::zero());
            for h in 0..geom.in_h {
                let dst_row = &mut padded
                    [(h + geom.pad) * pw + geom.pad..(h + geom.pad) * pw + geom.pad + geom.in_w];
                dst_row.copy_from_slice(&plane[h * geom.in_w..(h + 1) * geom.in_w]);
            }
            self.block_sum_plane_into(padded, ph, pw, &mut scratch.ha, g_plane);
        }
    }

    /// Run the fused operator. Batch items write their disjoint chunks of
    /// the output tensor in place (no per-item buffers to re-copy), in
    /// parallel; each worker carries its own [`FusedScratch`].
    pub fn forward(&self, input: &Tensor<T>) -> Result<Tensor<T>> {
        let ishape = input.shape();
        let wshape = self.weight.shape();
        if ishape.c != wshape.c {
            return Err(TensorError::ShapeMismatch {
                left: ishape,
                right: wshape,
                op: "fused conv-pool (channels)",
            });
        }
        let geom = self.geometry(ishape)?;
        let out_shape = Shape4::new(ishape.n, wshape.n, geom.out_h, geom.out_w);
        let in_item = ishape.c * ishape.h * ishape.w;
        let out_item = wshape.n * geom.out_h * geom.out_w;
        let data = input.as_slice();
        let mut out = Tensor::zeros(out_shape);
        out.as_mut_slice()
            .par_chunks_mut(out_item.max(1))
            .enumerate()
            .for_each(|(n, dst)| {
                let mut scratch = FusedScratch::new();
                let item = &data[n * in_item..(n + 1) * in_item];
                self.forward_item_into(item, &geom, dst, &mut scratch);
            });
        Ok(out)
    }

    /// The unfused reference: `relu?(pool(conv(x) + bias))` with average
    /// (or, when division is disabled, sum) pooling. This is what MLCNN
    /// must match.
    pub fn reference(&self, input: &Tensor<T>) -> Result<Tensor<T>> {
        let conv = conv2d_direct(input, &self.weight, None, self.conv_stride, self.pad)?;
        let mut pooled = if self.divide {
            avg_pool2d(&conv, self.pool, self.pool)?
        } else {
            sum_pool2d(&conv, self.pool, self.pool)?
        };
        // bias after pooling == bias before pooling for average pooling;
        // for the sum variant the caller's bias is in the sum domain.
        let s = pooled.shape();
        for n in 0..s.n {
            for c in 0..s.c {
                let b = self.bias[c];
                for v in pooled.plane_slice_mut(n, c) {
                    *v += b;
                }
            }
        }
        if self.relu {
            pooled.map_inplace(|v| v.relu());
        }
        Ok(pooled)
    }
}

/// `out[b] = term(0)[b] + term(1)[b] + … + term(p−1)[b]`, added left to
/// right (the per-element order of the AR unit's `acc += …` loop), one
/// whole row per term so the adds vectorize.
fn window_sum<'a, T: Scalar>(out: &mut [T], p: usize, term: impl Fn(usize) -> &'a [T]) {
    let first = &term(0)[..out.len()];
    if p == 1 {
        out.copy_from_slice(first);
        return;
    }
    for ((o, &x), &y) in out.iter_mut().zip(first).zip(term(1)) {
        *o = x + y;
    }
    for d in 2..p {
        for (o, &x) in out.iter_mut().zip(term(d)) {
            *o += x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcnn_tensor::init;
    use proptest::prelude::*;

    fn rand_setup(
        seed: u64,
        b: usize,
        cin: usize,
        cout: usize,
        d: usize,
        k: usize,
        s: usize,
        pad: usize,
        pool: usize,
    ) -> (Tensor<f32>, FusedConvPool<f32>) {
        let mut rng = init::rng(seed);
        let input = init::uniform(Shape4::new(b, cin, d, d), -1.0, 1.0, &mut rng);
        let weight = init::uniform(Shape4::new(cout, cin, k, k), -1.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..cout).map(|i| (i as f32 - 1.0) * 0.05).collect();
        let fused = FusedConvPool::new(weight, bias, s, pad, pool).unwrap();
        (input, fused)
    }

    /// The textbook kernel the tiled one replaced, kept as the oracle:
    /// per-element LAR loops (phases 1–2, either orientation), then one
    /// scalar accumulator per pooled output summing
    /// `W[to][ti][i][j]·G_ti[..]` in `(ti, i, j)` order, then the
    /// preprocessing unit's divide, bias and ReLU.
    fn forward_item_oracle<T: Scalar>(
        f: &FusedConvPool<T>,
        item: &[T],
        geom: &FusedGeometry,
        dst: &mut [T],
    ) {
        let wshape = f.weight.shape();
        let (p, s, k) = (f.pool, f.conv_stride, geom.k);
        let (ph, pw) = (geom.in_h + 2 * geom.pad, geom.in_w + 2 * geom.pad);
        let span = (p - 1) * s;
        let (g_h, gw) = (ph - span, pw - span);
        let mut g = vec![T::zero(); wshape.c * g_h * gw];
        for c in 0..wshape.c {
            let mut padded = vec![T::zero(); ph * pw];
            for h in 0..geom.in_h {
                for w in 0..geom.in_w {
                    padded[(h + geom.pad) * pw + geom.pad + w] =
                        item[(c * geom.in_h + h) * geom.in_w + w];
                }
            }
            let gp = &mut g[c * g_h * gw..(c + 1) * g_h * gw];
            if f.row_based {
                let mut ha = vec![T::zero(); ph * gw];
                for a in 0..ph {
                    for b in 0..gw {
                        let mut acc = padded[a * pw + b];
                        for dx in 1..p {
                            acc += padded[a * pw + b + dx * s];
                        }
                        ha[a * gw + b] = acc;
                    }
                }
                for a in 0..g_h {
                    for b in 0..gw {
                        let mut acc = ha[a * gw + b];
                        for dy in 1..p {
                            acc += ha[(a + dy * s) * gw + b];
                        }
                        gp[a * gw + b] = acc;
                    }
                }
            } else {
                let mut ha = vec![T::zero(); g_h * pw];
                for a in 0..g_h {
                    for b in 0..pw {
                        let mut acc = padded[a * pw + b];
                        for dy in 1..p {
                            acc += padded[(a + dy * s) * pw + b];
                        }
                        ha[a * pw + b] = acc;
                    }
                }
                for a in 0..g_h {
                    for b in 0..gw {
                        let mut acc = ha[a * pw + b];
                        for dx in 1..p {
                            acc += ha[a * pw + b + dx * s];
                        }
                        gp[a * gw + b] = acc;
                    }
                }
            }
        }
        let inv_area = T::one() / T::from_f32((p * p) as f32);
        for to in 0..wshape.n {
            for x in 0..geom.out_h {
                for y in 0..geom.out_w {
                    let mut acc = T::zero();
                    for ti in 0..wshape.c {
                        let gp = &g[ti * g_h * gw..(ti + 1) * g_h * gw];
                        for i in 0..k {
                            let row = (p * x * s + i) * gw + p * y * s;
                            for j in 0..k {
                                acc += f.weight.at(to, ti, i, j) * gp[row + j];
                            }
                        }
                    }
                    let mut v = if f.divide { acc * inv_area } else { acc };
                    v += f.bias[to];
                    if f.relu {
                        v = v.relu();
                    }
                    dst[(to * geom.out_h + x) * geom.out_w + y] = v;
                }
            }
        }
    }

    /// Run the kernel and the oracle on one item of `input`.
    fn kernel_and_oracle<T: Scalar>(f: &FusedConvPool<T>, input: &Tensor<T>) -> (Vec<T>, Vec<T>) {
        let geom = f.geometry(input.shape()).unwrap();
        let len = f.out_shape(input.shape()).unwrap().len();
        let (mut fast, mut slow) = (vec![T::zero(); len], vec![T::zero(); len]);
        f.forward_item_into(input.as_slice(), &geom, &mut fast, &mut FusedScratch::new());
        forward_item_oracle(f, input.as_slice(), &geom, &mut slow);
        (fast, slow)
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
        fn oracle_fused_mac_f32_is_bitwise_scalar(
            seed in 0u64..1_000_000,
            cin in 1usize..4,
            cout in prop_oneof![Just(1usize), Just(6), Just(16)],
            k in 1usize..6,
            stride in 1usize..3,
            pad in 0usize..3,
            pool in 1usize..5,
            extra in 0usize..6,
        ) {
            let d = (pool - 1) * stride + k + extra;
            let (mut input, fused) = rand_setup(seed, 1, cin, cout, d, k, stride, pad, pool);
            // awkward inputs: signed zeros, subnormals, large magnitudes
            let specials = [0.0, -0.0, 1e-40, -3e-39, 3e38, -2e38];
            for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
                if (i as u64 ^ seed).is_multiple_of(5) {
                    *v = specials[(i + seed as usize) % specials.len()];
                }
            }
            for relu in [true, false] {
                let f = fused.clone().with_relu(relu).with_row_based_lar(seed % 2 == 1);
                let (fast, slow) = kernel_and_oracle(&f, &input);
                let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(
                    bits(&fast), bits(&slow),
                    "cin={} cout={} d={} k={} s={} pad={} pool={}",
                    cin, cout, d, k, stride, pad, pool
                );
            }
        }

        #[test]
        fn oracle_fused_mac_i64_is_exact(
            seed in 0u64..1_000_000,
            cin in 1usize..4,
            cout in prop_oneof![Just(1usize), Just(6), Just(16)],
            k in 1usize..5,
            stride in 1usize..3,
            pad in 0usize..3,
            pool in 2usize..4,
            extra in 0usize..5,
        ) {
            let d = (pool - 1) * stride + k + extra;
            let mut rng = init::rng(seed);
            let input = init::uniform(Shape4::new(1, cin, d, d), -9.0, 9.0, &mut rng).cast::<i64>();
            let weight = init::uniform(Shape4::new(cout, cin, k, k), -5.0, 5.0, &mut rng).cast::<i64>();
            let bias = (0..cout as i64).map(|b| b - 3).collect();
            let fused = FusedConvPool::new(weight, bias, stride, pad, pool)
                .unwrap()
                .with_divide(false)
                .with_row_based_lar(seed % 2 == 1);
            let (fast, slow) = kernel_and_oracle(&fused, &input);
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn matches_reference_on_paper_example_geometry() {
        // Fig. 5: 5x5 input, 2x2 filter, unit stride, 2x2 pool.
        let (input, fused) = rand_setup(1, 1, 1, 1, 5, 2, 1, 0, 2);
        let a = fused.forward(&input).unwrap();
        let b = fused.reference(&input).unwrap();
        assert_eq!(a.shape(), Shape4::new(1, 1, 2, 2));
        assert!(
            a.approx_eq(&b, 1e-5),
            "diff {}",
            a.max_abs_diff(&b).unwrap()
        );
    }

    #[test]
    fn matches_reference_across_geometries() {
        for (seed, b, cin, cout, d, k, s, pad, pool) in [
            (
                2u64, 2usize, 3usize, 4usize, 8usize, 3usize, 1usize, 1usize, 2usize,
            ),
            (3, 1, 2, 2, 12, 5, 1, 0, 2),
            (4, 1, 1, 3, 16, 3, 1, 1, 4),
            (5, 2, 2, 2, 9, 2, 1, 0, 3),
            (6, 1, 4, 1, 16, 5, 2, 2, 2),
            (7, 1, 1, 1, 16, 1, 1, 0, 2), // 1x1 kernel (DenseNet transition)
            (8, 1, 2, 2, 10, 3, 1, 1, 5),
        ] {
            let (input, fused) = rand_setup(seed, b, cin, cout, d, k, s, pad, pool);
            let a = fused.forward(&input).unwrap();
            let r = fused.reference(&input).unwrap();
            assert!(
                a.approx_eq(&r, 1e-4),
                "geometry d={d} k={k} s={s} pad={pad} pool={pool}: diff {}",
                a.max_abs_diff(&r).unwrap()
            );
        }
    }

    #[test]
    fn googlenet_style_8x8_global_pool() {
        // conv output 8x8 pooled by 8 → a single output per channel.
        let (input, fused) = rand_setup(9, 1, 3, 2, 8, 3, 1, 1, 8);
        let a = fused.forward(&input).unwrap();
        let r = fused.reference(&input).unwrap();
        assert_eq!(a.shape(), Shape4::new(1, 2, 1, 1));
        assert!(a.approx_eq(&r, 1e-4));
    }

    #[test]
    fn integer_arithmetic_is_bit_exact() {
        // deferred division => fused == sum-pooled reference exactly in i64.
        let mut rng = init::rng(10);
        let input = init::uniform(Shape4::new(1, 2, 9, 9), -8.0, 8.0, &mut rng).cast::<i64>();
        let weight = init::uniform(Shape4::new(3, 2, 3, 3), -4.0, 4.0, &mut rng).cast::<i64>();
        let fused = FusedConvPool::new(weight, vec![1_i64, -2, 3], 1, 0, 2)
            .unwrap()
            .with_divide(false);
        let a = fused.forward(&input).unwrap();
        let r = fused.reference(&input).unwrap();
        assert_eq!(a, r, "integer fused != reference");
    }

    #[test]
    fn relu_clamps_negative_pooled_outputs() {
        let weight = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![-1.0_f32]).unwrap();
        let fused = FusedConvPool::new(weight, vec![0.0], 1, 0, 2).unwrap();
        let input = Tensor::full(Shape4::hw(4, 4), 1.0_f32);
        let out = fused.forward(&input).unwrap();
        // conv output = -1 everywhere, pooled = -1, relu = 0
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        let no_relu = fused.clone().with_relu(false).forward(&input).unwrap();
        assert!(no_relu.as_slice().iter().all(|&v| v == -1.0));
    }

    #[test]
    fn bias_is_applied_once_after_pooling() {
        let weight = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![0.0_f32]).unwrap();
        let fused = FusedConvPool::new(weight, vec![7.5], 1, 0, 2).unwrap();
        let input = Tensor::full(Shape4::hw(4, 4), 3.0_f32);
        let out = fused.forward(&input).unwrap();
        assert!(out.as_slice().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn forward_item_into_reuses_dirty_scratch_across_geometries() {
        // one scratch serving layers of different geometry must not leak
        // state (stale padding ring, oversized G planes) between calls.
        let (input_a, fused_a) = rand_setup(11, 1, 3, 2, 10, 3, 1, 1, 2);
        let (input_b, fused_b) = rand_setup(12, 1, 2, 3, 8, 2, 1, 0, 2);
        let mut scratch = FusedScratch::new();
        for (inp, f) in [
            (&input_a, &fused_a),
            (&input_b, &fused_b),
            (&input_a, &fused_a),
        ] {
            let geom = f.geometry(inp.shape()).unwrap();
            let expect = f.forward(inp).unwrap();
            let mut dst = vec![0.0_f32; expect.shape().len()];
            f.forward_item_into(inp.as_slice(), &geom, &mut dst, &mut scratch);
            assert_eq!(dst.as_slice(), expect.as_slice());
        }
    }

    #[test]
    fn rejects_bad_construction() {
        let w = Tensor::<f32>::zeros(Shape4::new(2, 1, 2, 3));
        assert!(FusedConvPool::new(w, vec![0.0; 2], 1, 0, 2).is_err());
        let w = Tensor::<f32>::zeros(Shape4::new(2, 1, 3, 3));
        assert!(FusedConvPool::new(w.clone(), vec![0.0; 1], 1, 0, 2).is_err());
        let ok = FusedConvPool::new(w, vec![0.0; 2], 1, 0, 2).unwrap();
        // pool larger than conv output (3x3 input, 3x3 kernel → 1x1 conv)
        assert!(ok.out_shape(Shape4::new(1, 1, 3, 3)).is_err());
        // channel mismatch
        let input = Tensor::<f32>::zeros(Shape4::new(1, 3, 8, 8));
        assert!(ok.forward(&input).is_err());
    }

    #[test]
    fn geometry_derivation() {
        let g = FusedGeometry::new(32, 32, 3, 1, 1, 2).unwrap();
        assert_eq!((g.conv_h, g.conv_w), (32, 32));
        assert_eq!((g.out_h, g.out_w), (16, 16));
        let g = FusedGeometry::new(14, 14, 5, 1, 0, 2).unwrap();
        assert_eq!((g.conv_h, g.conv_w), (10, 10));
        assert_eq!((g.out_h, g.out_w), (5, 5));
        assert!(FusedGeometry::new(4, 4, 3, 1, 0, 3).is_err());
    }

    #[test]
    fn multiplication_count_is_reduced_by_pool_area() {
        // structural check: the fused MAC loop touches K² weights per
        // pooled output; dense touches K² per conv output. Verify via the
        // geometry: conv outputs / pooled outputs == p².
        let g = FusedGeometry::new(32, 32, 3, 1, 1, 2).unwrap();
        assert_eq!(g.conv_h * g.conv_w, 4 * g.out_h * g.out_w);
        let g = FusedGeometry::new(8, 8, 3, 1, 1, 8).unwrap();
        assert_eq!(g.conv_h * g.conv_w, 64 * g.out_h * g.out_w);
    }

    #[test]
    fn row_based_orientation_is_bit_exact_in_integers() {
        let mut rng = init::rng(41);
        let input = init::uniform(Shape4::new(1, 2, 10, 10), -8.0, 8.0, &mut rng).cast::<i64>();
        let weight = init::uniform(Shape4::new(2, 2, 3, 3), -4.0, 4.0, &mut rng).cast::<i64>();
        let col = FusedConvPool::new(weight.clone(), vec![0_i64, 0], 1, 1, 2)
            .unwrap()
            .with_divide(false);
        let row = col.clone().with_row_based_lar(true);
        assert_eq!(col.forward(&input).unwrap(), row.forward(&input).unwrap());
    }

    #[test]
    fn row_based_orientation_matches_reference_at_f32() {
        let (input, fused) = rand_setup(42, 1, 3, 2, 12, 5, 1, 2, 2);
        let fused = fused.with_row_based_lar(true);
        let a = fused.forward(&input).unwrap();
        let r = fused.reference(&input).unwrap();
        assert!(
            a.approx_eq(&r, 1e-4),
            "diff {}",
            a.max_abs_diff(&r).unwrap()
        );
    }

    #[cfg(not(miri))] // randomized sweeps are far too slow under the interpreter
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_fused_equals_reference(
            seed in 0u64..1000,
            cin in 1usize..4,
            cout in 1usize..4,
            k in 1usize..6,
            pad in 0usize..3,
            pool in 2usize..4,
            extra in 0usize..6,
        ) {
            // build a d large enough for at least one pooled output
            let d = (k + pool * pool + extra).max(pool + k);
            let (input, fused) = rand_setup(seed, 1, cin, cout, d, k, 1, pad, pool);
            let a = fused.forward(&input).unwrap();
            let r = fused.reference(&input).unwrap();
            prop_assert!(
                a.approx_eq(&r, 1e-3),
                "d={} k={} pad={} pool={} diff={}",
                d, k, pad, pool,
                a.max_abs_diff(&r).unwrap()
            );
        }

        #[test]
        fn prop_orientations_agree(
            seed in 0u64..500,
            k in 1usize..5,
            pool in 2usize..4,
            extra in 0usize..5,
        ) {
            let d = k + pool * 2 + extra;
            let mut rng = init::rng(seed);
            let input = init::uniform(Shape4::new(1, 2, d, d), -5.0, 5.0, &mut rng).cast::<i64>();
            let weight = init::uniform(Shape4::new(2, 2, k, k), -3.0, 3.0, &mut rng).cast::<i64>();
            let col = FusedConvPool::new(weight, vec![0, 0], 1, 0, pool)
                .unwrap()
                .with_divide(false);
            let row = col.clone().with_row_based_lar(true);
            prop_assert_eq!(col.forward(&input).unwrap(), row.forward(&input).unwrap());
        }

        #[test]
        fn prop_integer_exactness(
            seed in 0u64..500,
            k in 1usize..5,
            pool in 2usize..4,
            extra in 0usize..5,
        ) {
            let d = k + pool * 2 + extra;
            let mut rng = init::rng(seed);
            let input = init::uniform(Shape4::new(1, 2, d, d), -5.0, 5.0, &mut rng).cast::<i64>();
            let weight = init::uniform(Shape4::new(2, 2, k, k), -3.0, 3.0, &mut rng).cast::<i64>();
            let fused = FusedConvPool::new(weight, vec![0, 0], 1, 0, pool)
                .unwrap()
                .with_divide(false);
            let a = fused.forward(&input).unwrap();
            let r = fused.reference(&input).unwrap();
            prop_assert_eq!(a, r);
        }
    }
}
