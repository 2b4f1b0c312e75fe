//! Dense, row-major, 2-D `f32` tensors.
//!
//! Everything in this reproduction is expressible with matrices: a
//! trajectory of `n` points embedded in `d` dimensions is an `n x d`
//! tensor, a single vector is `1 x d`, and a scalar is `1 x 1`. Fixing the
//! rank to two keeps the kernel code simple and auditable while covering
//! every equation in the paper.

use std::fmt;

/// Dot product of two equal-length slices over eight independent
/// accumulator lanes. A single-accumulator reduction is a serial
/// dependency chain the compiler must not reorder (float addition is not
/// associative), so it executes one scalar FMA per cycle at best; eight
/// explicit lanes give the auto-vectorizer a legal width-8 reduction.
/// The lane combination order is fixed, so results are deterministic.
#[inline]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let av = &a[c * 8..c * 8 + 8];
        let bv = &b[c * 8..c * 8 + 8];
        for l in 0..8 {
            lanes[l] += av[l] * bv[l];
        }
    }
    let mut sum = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    for k in chunks * 8..a.len() {
        sum += a[k] * b[k];
    }
    sum
}

/// `f32::max`'s rule for a running maximum `m` that is never NaN: a NaN
/// `x` is skipped. Written as a compare because `f32::max` must also
/// pick an operand when one is NaN, which LLVM lowers to a scalar
/// `maxss` / `cmpunord` / `blend` chain wherever the trip count is only
/// known at run time; `x > m ? x : m` is exactly one `maxps`. The two
/// may disagree only on which signed zero is the maximum, and that
/// moves no softmax bit: every entry `x` then gives `x - 0.0 == x - (-0.0)`
/// unless `x` is itself a zero, and `exp_approx(±0) == 1.0`.
#[inline(always)]
fn max_skipping_nan(m: f32, x: f32) -> f32 {
    if x > m {
        x
    } else {
        m
    }
}

/// Maximum of a slice over eight independent lanes (serial `fold` with
/// `f32::max` is a latency chain; max is order-independent so laning is
/// exact, not just deterministic). NaN entries are skipped, as by
/// `f32::max`; a slice of only NaN, or an empty one, gives `-inf`.
#[inline]
fn max_lanes(v: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; 8];
    let chunks = v.chunks_exact(8);
    let tail = chunks.remainder();
    for cv in chunks {
        for (lane, &x) in lanes.iter_mut().zip(cv) {
            *lane = max_skipping_nan(*lane, x);
        }
    }
    lanes.into_iter().chain(tail.iter().copied()).fold(f32::NEG_INFINITY, max_skipping_nan)
}

/// Branch-free `exp` with ~3e-7 relative error, free of everything that
/// keeps a caller's loop scalar on x86-64, at baseline (SSE2) and at
/// x86-64-v3 alike: no libm call (`f32::exp`, `f32::floor`) and no
/// float-to-int cast (`as i32` saturates, which compiles to a scalar
/// `cvttss2si` with a compare-and-select around it, once per element).
/// Splits `x = k ln2 + f` with `|f| <= ln2 / 2` and evaluates a
/// degree-5 Taylor polynomial for `e^f`, then scales by `2^k` through
/// the exponent bits. Deterministic; inputs are clamped to the finite
/// range so the bit shift cannot overflow, and the clamp passes NaN
/// through to the result.
#[inline]
fn exp_approx(x: f32) -> f32 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    const LN_2: f32 = std::f32::consts::LN_2;
    // Round-to-nearest by the float rounding mode: adding 1.5 * 2^23
    // leaves no fraction bits, so `t` holds `MAGIC + k` exactly, with
    // the integer `k` sitting in its low mantissa bits (ulp is 1 at this
    // magnitude; exact for |k| < 2^22, and k is within [-126, 127]).
    const MAGIC: f32 = 12_582_912.0;
    let x = x.clamp(-87.0, 88.0);
    let t = x * LOG2_E + MAGIC;
    let k = t - MAGIC;
    let f = x - k * LN_2;
    // e^f for |f| <= ln2/2 ~ 0.347: degree-5 Taylor, max rel. err ~2e-7.
    let p = 1.0
        + f * (1.0 + f * (0.5 + f * (1.0 / 6.0 + f * (1.0 / 24.0 + f * (1.0 / 120.0)))));
    // `k + 127` as integer arithmetic on the bit pattern of `t`.
    let biased = t.to_bits().wrapping_sub(MAGIC.to_bits()).wrapping_add(127);
    f32::from_bits(biased << 23) * p
}

/// A borrowed `rows x cols` matrix whose consecutive rows start `stride`
/// elements apart, so a column range of a wider matrix (one attention
/// head) is a view, not a copy. The slice-level kernels below take
/// these; the `Tensor` methods and the forward-only evaluator in
/// `traj2hash` both call them, so there is one loop per kernel.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> MatRef<'a> {
    /// Views a contiguous row-major buffer of exactly `rows * cols` values.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "view length does not match shape {rows}x{cols}");
        MatRef { data, rows, cols, stride: cols }
    }

    /// The `len` columns starting at `start`, in place.
    pub fn cols_range(self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.cols, "cols_range out of range");
        // A zero-row matrix has no data to skip into.
        MatRef { data: &self.data[start.min(self.data.len())..], cols: len, ..self }
    }

    #[inline]
    fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.stride..][..self.cols]
    }
}

/// The mutable counterpart of [`MatRef`]: where a kernel writes.
pub struct MatMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> MatMut<'a> {
    /// Views a contiguous row-major buffer of exactly `rows * cols` values.
    pub fn new(data: &'a mut [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "view length does not match shape {rows}x{cols}");
        MatMut { data, rows, cols, stride: cols }
    }

    /// The `len` columns starting at `start`, in place.
    pub fn cols_range(self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.cols, "cols_range out of range");
        let start = start.min(self.data.len());
        MatMut { data: &mut self.data[start..], cols: len, ..self }
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.stride..][..self.cols]
    }
}

/// One `MR x NR` tile of `out = a * b` at row `i`, column `j`: every
/// cell's sum is formed from `0.0` in ascending `k` in an accumulator
/// array small enough to stay in registers, then written once.
#[inline(always)]
fn matmul_tile<const MR: usize, const NR: usize>(
    out: &mut MatMut<'_>,
    a: MatRef<'_>,
    b: MatRef<'_>,
    i: usize,
    j: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for k in 0..b.rows {
        let b_row = &b.row(k)[j..j + NR];
        for (r, sums) in acc.iter_mut().enumerate() {
            let av = a.row(i + r)[k];
            for (sum, &bv) in sums.iter_mut().zip(b_row) {
                *sum += av * bv;
            }
        }
    }
    for (r, sums) in acc.iter().enumerate() {
        out.row_mut(i + r)[j..j + NR].copy_from_slice(sums);
    }
}

/// The `MR` output rows starting at `i`, in tiles 16, 4 and 1 wide.
#[inline(always)]
fn matmul_band<const MR: usize>(out: &mut MatMut<'_>, a: MatRef<'_>, b: MatRef<'_>, i: usize) {
    let mut j = 0;
    while j + 16 <= out.cols {
        matmul_tile::<MR, 16>(out, a, b, i, j);
        j += 16;
    }
    while j + 4 <= out.cols {
        matmul_tile::<MR, 4>(out, a, b, i, j);
        j += 4;
    }
    while j < out.cols {
        matmul_tile::<MR, 1>(out, a, b, i, j);
        j += 1;
    }
}

/// Rows per band of [`matmul_into`]: four at x86-64-v3, where a `4 x 16`
/// tile's accumulators fill eight of the sixteen ymm registers, and two
/// on a baseline build, where the same tile would take all sixteen xmm
/// registers and spill (`4 x 16` read 1.37x the time of `2 x 16` on the
/// traced matmul rows there; `6 x 16` lost to both at v3). Either way
/// every cell's sum is the same, so this picks speed, not bits.
const BAND: usize = if cfg!(target_feature = "avx") { 4 } else { 2 };

/// `out = a (n x m) * b (m x p)`.
///
/// Register-tiled: the output is covered by `BAND x 16` tiles, with
/// `BAND x 4` and `BAND x 1` tiles for the column tails and a two- and
/// a one-row band for the row tails, each summed in registers over the
/// whole shared dimension and stored once. The output is written, never
/// read: a loop that keeps its sums in the output row reloads and
/// stores that row for every `k`.
///
/// A tile changes which cells are in flight together, not the order of
/// any cell's sum: whatever tile a cell falls in, its products are added
/// to `0.0` in ascending `k`, one rounded multiply and one rounded add
/// each, so every result bit is that of the plain one-row-at-a-time ikj
/// loop — and row `i` of the output depends on row `i` of `a` alone.
pub fn matmul_into(mut out: MatMut<'_>, a: MatRef<'_>, b: MatRef<'_>) {
    assert_eq!(
        a.cols, b.rows,
        "matmul shape mismatch: {}x{} * {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    assert_eq!((out.rows, out.cols), (a.rows, b.cols), "matmul output shape mismatch");
    let mut i = 0;
    while i + BAND <= out.rows {
        matmul_band::<BAND>(&mut out, a, b, i);
        i += BAND;
    }
    if i + 2 <= out.rows {
        matmul_band::<2>(&mut out, a, b, i);
        i += 2;
    }
    if i < out.rows {
        matmul_band::<1>(&mut out, a, b, i);
    }
}

/// `out = a (n x m) * b_t^T` with the right operand given as `p x m`:
/// every output cell is a [`dot_lanes`] product of two rows.
fn matmul_transposed_into(mut out: MatMut<'_>, a: MatRef<'_>, b_t: MatRef<'_>) {
    assert_eq!(
        a.cols, b_t.cols,
        "matmul_transposed shape mismatch: {}x{} * ({}x{})^T",
        a.rows, a.cols, b_t.rows, b_t.cols
    );
    assert_eq!((out.rows, out.cols), (a.rows, b_t.rows), "matmul_transposed output shape mismatch");
    for i in 0..a.rows {
        let a_row = a.row(i);
        for (j, o) in out.row_mut(i).iter_mut().enumerate() {
            *o = dot_lanes(a_row, b_t.row(j));
        }
    }
}

/// Writes `b^T` into `b_t` as eight-column panels: panel `g` holds
/// columns `8g .. 8g + 8` of `b^T` (keys `8g ..` of `b`), row-major as
/// `b.cols x 8`, and the keys past `b.rows` in the last panel are zero.
/// Only growth of `b_t` allocates; every kept cell is overwritten.
fn pack_key_panels(b_t: &mut Vec<f32>, b: MatRef<'_>) {
    b_t.resize(b.rows.div_ceil(8) * 8 * b.cols, 0.0);
    for (g, panel) in b_t.chunks_exact_mut(8 * b.cols).enumerate() {
        for (key, r) in (8 * g..8 * g + 8).enumerate() {
            let column = panel.iter_mut().skip(key).step_by(8);
            if r < b.rows {
                column.zip(b.row(r)).for_each(|(cell, &x)| *cell = x);
            } else {
                column.for_each(|cell| *cell = 0.0);
            }
        }
    }
}

/// `out = a * b^T` for `b.cols == 8 * C`, in [`dot_lanes`] order, eight
/// output columns per pass over the key panels of [`pack_key_panels`].
/// For each of the eight keys of a panel, lane `l` is summed from `0.0`
/// over `a[8c + l] * b[key][8c + l]` in ascending chunk `c`, and the
/// lanes are combined as `((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 +
/// l7))`: the roundings of `dot_lanes` for that cell, one key per vector
/// lane instead of one horizontal fold per cell. `b.cols` is a multiple
/// of eight, so `dot_lanes` has no tail here. `C` is a const so the
/// `8 x 8` accumulator stays in eight vector registers.
fn matmul_nt_lanes<const C: usize>(
    mut out: MatMut<'_>,
    a: MatRef<'_>,
    b: MatRef<'_>,
    b_t: &mut Vec<f32>,
) {
    pack_key_panels(b_t, b);
    for i in 0..a.rows {
        let a_row = &a.row(i)[..8 * C];
        for (cells, panel) in out.row_mut(i).chunks_mut(8).zip(b_t.chunks_exact(64 * C)) {
            let mut lanes = [[0.0f32; 8]; 8];
            for (k, (&av, keys)) in a_row.iter().zip(panel.chunks_exact(8)).enumerate() {
                for (sum, &kv) in lanes[k % 8].iter_mut().zip(keys) {
                    *sum += av * kv;
                }
            }
            let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
            let mut sums = [0.0f32; 8];
            for (key, sum) in sums.iter_mut().enumerate() {
                *sum = ((l0[key] + l4[key]) + (l2[key] + l6[key]))
                    + ((l1[key] + l5[key]) + (l3[key] + l7[key]));
            }
            cells.copy_from_slice(&sums[..cells.len()]);
        }
    }
}

/// `out = a * b^T`, the attention-score product `Q K^T`, choosing the
/// summation order from the shape of `b` alone. With a short shared
/// dimension (per-head attention, `d_head << n_keys`, at least `4 *
/// d_head` keys) `b^T` is materialized into `b_t` and the tiled
/// ascending-`k` kernel runs. Below that, every cell is a [`dot_lanes`]
/// sum; for a `d_head` of 8 or 16 those sums are formed eight keys at a
/// time over `b^T` in `b_t` ([`matmul_nt_lanes`], the same bits), other
/// widths fold one cell at a time. Because the choice never looks at
/// `a`, a one-row `a` yields exactly row 0 of the full product.
pub fn matmul_nt_into(out: MatMut<'_>, a: MatRef<'_>, b: MatRef<'_>, b_t: &mut Vec<f32>) {
    if b.rows >= 4 * b.cols {
        // Every cell is overwritten below, so only growth is filled.
        b_t.resize(b.rows * b.cols, 0.0);
        for r in 0..b.rows {
            for (c, &x) in b.row(r).iter().enumerate() {
                b_t[c * b.rows + r] = x;
            }
        }
        matmul_into(out, a, MatRef::new(b_t, b.cols, b.rows));
        return;
    }
    assert_eq!(
        a.cols, b.cols,
        "matmul_nt shape mismatch: {}x{} * ({}x{})^T",
        a.rows, a.cols, b.rows, b.cols
    );
    assert_eq!((out.rows, out.cols), (a.rows, b.rows), "matmul_nt output shape mismatch");
    match b.cols {
        8 => matmul_nt_lanes::<1>(out, a, b, b_t),
        16 => matmul_nt_lanes::<2>(out, a, b, b_t),
        _ => matmul_transposed_into(out, a, b),
    }
}

/// Row-wise softmax, in place, over a contiguous buffer of `cols`-wide
/// rows.
///
/// Attention computes a softmax over every `n x n` score matrix, so
/// this kernel avoids the scalar-latency traps of the naive loop: libm
/// `exp` (replaced by [`exp_approx`], ~3e-7 relative error) and serial
/// max/sum reduction chains (replaced by eight-lane folds like
/// [`dot_lanes`]). The exponentials are one element-wise pass of their
/// own, which is the loop shape LLVM vectorizes; the sum pass then adds
/// the stored values in the lane order a fused loop would.
pub fn softmax_rows_in_place(data: &mut [f32], cols: usize) {
    for row in data.chunks_exact_mut(cols.max(1)) {
        let max = max_lanes(row);
        for x in row.iter_mut() {
            *x = exp_approx(*x - max);
        }
        let mut sum_acc = [0.0f32; 8];
        let chunks = row.chunks_exact(8);
        let tail = chunks.remainder();
        for v in chunks {
            for l in 0..8 {
                sum_acc[l] += v[l];
            }
        }
        let mut sum = ((sum_acc[0] + sum_acc[4]) + (sum_acc[2] + sum_acc[6]))
            + ((sum_acc[1] + sum_acc[5]) + (sum_acc[3] + sum_acc[7]));
        for &x in tail {
            sum += x;
        }
        if sum > 0.0 {
            let inv = 1.0 / sum;
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
    }
}

/// Adds the bias row to every `bias.len()`-wide row of `data`, in
/// place; with `relu`, clamps the sum at zero in the same pass.
pub fn add_bias(data: &mut [f32], bias: &[f32], relu: bool) {
    for row in data.chunks_exact_mut(bias.len().max(1)) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o = if relu { (*o + b).max(0.0) } else { *o + b };
        }
    }
}

/// A dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a tensor from a row-major data buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates an all-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a `1 x 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Creates a `1 x d` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// The single value of a `1 x 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combine with another tensor of identical shape.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += other` (identical shapes).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (identical shapes).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scale by a scalar.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Fill with zeros, keeping the allocation.
    pub fn zero_out(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// The whole tensor as a kernel operand.
    pub fn view(&self) -> MatRef<'_> {
        MatRef::new(&self.data, self.rows, self.cols)
    }

    /// The whole tensor as a kernel output.
    fn view_mut(&mut self) -> MatMut<'_> {
        MatMut::new(&mut self.data, self.rows, self.cols)
    }

    /// Matrix multiplication `self (n x m) * other (m x p) -> n x p`
    /// (see [`matmul_into`]).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        matmul_into(out.view_mut(), self.view(), other.view());
        out
    }

    /// `self (n x m) * other^T (m x p, given as p x m) -> n x p`.
    ///
    /// The right operand is supplied already transposed (packed row-major
    /// by output column), turning every output cell into a dot product of
    /// two contiguous rows. This is the backward-pass kernel for
    /// `dL/dA = G * B^T`: it reads `B` directly instead of materializing
    /// `B^T` on every call. Each dot product reduces over eight
    /// independent lanes (see [`dot_lanes`]) so the reduction vectorizes;
    /// the result is deterministic but may differ from
    /// `self.matmul(&other_t.transpose())` in the last ulp because the
    /// summation groups differently.
    pub fn matmul_transposed(&self, other_t: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other_t.rows);
        matmul_transposed_into(out.view_mut(), self.view(), other_t.view());
        out
    }

    /// `self * other^T` with the shape-adaptive summation order of
    /// [`matmul_nt_into`] — the forward of `Var::matmul_nt`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        matmul_nt_into(out.view_mut(), self.view(), other.view(), &mut Vec::new());
        out
    }

    /// `self^T (m x n, given as n x m) * other (n x p) -> m x p`.
    ///
    /// The left operand is read directly in its untransposed layout via
    /// outer-product accumulation (for each shared row `i`, `out[k] +=
    /// a[i][k] * g[i]`), so the backward-pass kernel for `dL/dB = A^T * G`
    /// never materializes `A^T`. Contributions accumulate in ascending
    /// `i`, matching `self.transpose().matmul(other)` bit for bit.
    pub fn transposed_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "transposed_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, m, p) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * p];
        for i in 0..n {
            let a_row = &self.data[i * m..(i + 1) * m];
            let g_row = &other.data[i * p..(i + 1) * p];
            for (k, &a) in a_row.iter().enumerate() {
                let out_row = &mut out[k * p..(k + 1) * p];
                for (o, &g) in out_row.iter_mut().zip(g_row) {
                    *o += a * g;
                }
            }
        }
        Tensor { rows: m, cols: p, data: out }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = vec![0.0f32; self.data.len()];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        Tensor { rows: self.cols, cols: self.rows, data: out }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Squared Euclidean distance between two equally shaped tensors.
    pub fn squared_distance(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "squared_distance shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean distance between two equally shaped tensors.
    pub fn distance(&self, other: &Tensor) -> f32 {
        self.squared_distance(other).sqrt()
    }

    /// Concatenate horizontally: `n x a` ++ `n x b` -> `n x (a+b)`.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Tensor { rows: self.rows, cols, data }
    }

    /// Concatenate vertically: `a x d` ++ `b x d` -> `(a+b) x d`.
    pub fn concat_rows(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "concat_rows col mismatch");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Tensor { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Copy of rows `[start, start+len)`.
    pub fn slice_rows(&self, start: usize, len: usize) -> Tensor {
        assert!(start + len <= self.rows, "slice_rows out of range");
        let data = self.data[start * self.cols..(start + len) * self.cols].to_vec();
        Tensor { rows: len, cols: self.cols, data }
    }

    /// Copy of columns `[start, start+len)`.
    pub fn slice_cols(&self, start: usize, len: usize) -> Tensor {
        assert!(start + len <= self.cols, "slice_cols out of range");
        let mut data = Vec::with_capacity(self.rows * len);
        for r in 0..self.rows {
            let base = r * self.cols + start;
            data.extend_from_slice(&self.data[base..base + len]);
        }
        Tensor { rows: self.rows, cols: len, data }
    }

    /// Row-wise softmax (see [`softmax_rows_in_place`]).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        softmax_rows_in_place(&mut out.data, self.cols);
        out
    }

    /// Mean of every row: `n x d` -> `1 x d`.
    pub fn mean_rows(&self) -> Tensor {
        assert!(self.rows > 0, "mean_rows on an empty tensor");
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        let inv = 1.0 / self.rows as f32;
        for o in &mut out {
            *o *= inv;
        }
        Tensor { rows: 1, cols: self.cols, data: out }
    }

    /// True if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference against another tensor of equal shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_len_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![3.0, -1.0, 2.0, 5.0]);
        let id = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Tensor::from_vec(3, 4, (0..12).map(|i| i as f32 * 0.7 - 3.0).collect());
        let b = Tensor::from_vec(4, 5, (0..20).map(|i| (i as f32).sin()).collect());
        let direct = a.matmul(&b);
        let packed = a.matmul_transposed(&b.transpose());
        assert!(
            direct.max_abs_diff(&packed) < 1e-5,
            "packed kernel must match the plain matmul (lane reduction \
             may differ in the last ulp)"
        );
    }

    #[test]
    fn lane_dot_reduces_long_rows_correctly() {
        // 67 elements: 8 full lanes-of-8 plus a 3-element tail.
        let a = Tensor::from_vec(1, 67, (0..67).map(|i| (i as f32 * 0.37).sin()).collect());
        let b = Tensor::from_vec(1, 67, (0..67).map(|i| (i as f32 * 0.11).cos()).collect());
        let got = a.matmul_transposed(&b).get(0, 0) as f64;
        let want: f64 = (0..67)
            .map(|i| a.get(0, i) as f64 * b.get(0, i) as f64)
            .sum();
        assert!((got - want).abs() < 1e-5, "{got} vs {want}");
    }

    #[test]
    fn softmax_exp_is_close_to_libm() {
        // softmax built on exp_approx must stay within float tolerance
        // of the libm-exp reference across a wide input range.
        let vals: Vec<f32> = (-60..=60).map(|i| i as f32 * 0.7).collect();
        let n = vals.len();
        let t = Tensor::from_vec(1, n, vals.clone());
        let s = t.softmax_rows();
        let max = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f64> = vals.iter().map(|&v| ((v - max) as f64).exp()).collect();
        let sum: f64 = exps.iter().sum();
        for (i, e) in exps.iter().enumerate() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "an f64 reference for an f32 kernel"
            )]
            let want = (e / sum) as f32;
            assert!(
                (s.get(0, i) - want).abs() <= 2e-6 * want.max(1e-3),
                "softmax[{i}] = {} vs libm {}",
                s.get(0, i),
                want
            );
        }
    }

    #[test]
    fn transposed_matmul_matches_explicit_transpose() {
        let a = Tensor::from_vec(5, 3, (0..15).map(|i| (i as f32).cos()).collect());
        let g = Tensor::from_vec(5, 4, (0..20).map(|i| i as f32 * 0.1 - 1.0).collect());
        let direct = a.transpose().matmul(&g);
        let fused = a.transposed_matmul(&g);
        assert_eq!(direct, fused, "outer-product kernel must be bit-identical");
    }

    #[test]
    fn matmul_covers_tall_reductions() {
        let a = Tensor::from_vec(2, 150, (0..300).map(|i| ((i % 7) as f32) - 3.0).collect());
        let b = Tensor::from_vec(150, 3, (0..450).map(|i| ((i % 5) as f32) * 0.25).collect());
        let c = a.matmul(&b);
        // reference: naive triple loop in f64 for a tight tolerance
        for i in 0..2 {
            for j in 0..3 {
                let mut acc = 0.0f64;
                for k in 0..150 {
                    acc += a.get(i, k) as f64 * b.get(k, j) as f64;
                }
                assert!((c.get(i, j) as f64 - acc).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // softmax is monotone within a row
        assert!(s.get(0, 0) < s.get(0, 1) && s.get(0, 1) < s.get(0, 2));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(1, 3, vec![101.0, 102.0, 103.0]);
        assert!(a.softmax_rows().max_abs_diff(&b.softmax_rows()) < 1e-6);
    }

    #[test]
    fn concat_and_slice_are_inverse() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 1, vec![5.0, 6.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 1), b);

        let d = a.concat_rows(&a);
        assert_eq!(d.shape(), (4, 2));
        assert_eq!(d.slice_rows(2, 2), a);
    }

    #[test]
    fn mean_rows_known() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let m = a.mean_rows();
        assert_eq!(m.data(), &[2.0, 3.0]);
    }

    #[test]
    fn distance_matches_hand_computation() {
        let a = Tensor::row_vector(&[0.0, 0.0]);
        let b = Tensor::row_vector(&[3.0, 4.0]);
        assert!((a.distance(&b) - 5.0).abs() < 1e-6);
        assert!((a.squared_distance(&b) - 25.0).abs() < 1e-6);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Tensor::from_vec(1, 2, vec![10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale_assign(2.0);
        assert_eq!(a.data(), &[12.0, 24.0]);
    }
}

/// The kernels above replaced a blocked ikj matmul, a cast-based
/// `exp_approx` and a softmax that summed inside its `exp` loop. Those
/// are kept here, verbatim and for tests only, as the references the
/// replacements must equal in every `to_bits()`.
#[cfg(test)]
mod bit_identity {
    use super::*;
    use proptest::prelude::*;

    fn matmul_ikj_reference(mut out: MatMut<'_>, a: MatRef<'_>, b: MatRef<'_>) {
        const KC: usize = 64;
        for i in 0..out.rows {
            out.row_mut(i).fill(0.0);
        }
        for kb in (0..a.cols).step_by(KC) {
            let kend = (kb + KC).min(a.cols);
            for i in 0..a.rows {
                let out_row = out.row_mut(i);
                for (k, &av) in a.row(i)[kb..kend].iter().enumerate() {
                    for (o, &bv) in out_row.iter_mut().zip(b.row(kb + k)) {
                        *o += av * bv;
                    }
                }
            }
        }
    }

    fn exp_cast_reference(x: f32) -> f32 {
        const LOG2_E: f32 = std::f32::consts::LOG2_E;
        const LN_2: f32 = std::f32::consts::LN_2;
        const MAGIC: f32 = 12_582_912.0;
        let x = x.clamp(-87.0, 88.0);
        let k = (x * LOG2_E + MAGIC) - MAGIC;
        let f = x - k * LN_2;
        let p = 1.0
            + f * (1.0 + f * (0.5 + f * (1.0 / 6.0 + f * (1.0 / 24.0 + f * (1.0 / 120.0)))));
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "k is an integer in [-87, 88] after the clamp, so the exponent is in range"
        )]
        let scale = f32::from_bits(((k as i32 + 127) as u32) << 23);
        scale * p
    }

    /// The fused softmax loop, with its maximum taken by a plain serial
    /// `f32::max` fold rather than the library's `max_lanes`.
    fn softmax_reference(data: &mut [f32], cols: usize) {
        for row in data.chunks_exact_mut(cols.max(1)) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum_acc = [0.0f32; 8];
            let chunks = row.len() / 8;
            for c in 0..chunks {
                let v = &mut row[c * 8..c * 8 + 8];
                for l in 0..8 {
                    v[l] = exp_cast_reference(v[l] - max);
                    sum_acc[l] += v[l];
                }
            }
            let mut sum = ((sum_acc[0] + sum_acc[4]) + (sum_acc[2] + sum_acc[6]))
                + ((sum_acc[1] + sum_acc[5]) + (sum_acc[3] + sum_acc[7]));
            for x in &mut row[chunks * 8..] {
                *x = exp_cast_reference(*x - max);
                sum += *x;
            }
            if sum > 0.0 {
                let inv = 1.0 / sum;
                for x in row.iter_mut() {
                    *x *= inv;
                }
            }
        }
    }

    /// [`dot_lanes`]' order written out cell by cell: lane `l` sums
    /// `a[k] * b[k]` from `0.0` over `k = l, l + 8, ..` below the last
    /// whole chunk, the lanes combine as `((l0 + l4) + (l2 + l6)) + ((l1 +
    /// l5) + (l3 + l7))`, and the tail is added after in ascending `k`.
    fn dot_lanes_reference(a: &[f32], b: &[f32]) -> f32 {
        let body = a.len() / 8 * 8;
        let lane = |l: usize| (l..body).step_by(8).fold(0.0f32, |s, k| s + a[k] * b[k]);
        let combined = ((lane(0) + lane(4)) + (lane(2) + lane(6)))
            + ((lane(1) + lane(5)) + (lane(3) + lane(7)));
        (body..a.len()).fold(combined, |s, k| s + a[k] * b[k])
    }

    /// `n` values from a seeded LCG: mostly within `[-4, 4)`, one in
    /// eight a signed zero or a subnormal — or, when `wild`, an infinity.
    fn values(seed: u32, n: usize, wild: bool) -> Vec<f32> {
        const ALL: [f32; 6] = [0.0, -0.0, 1.0e-40, -3.0e-39, f32::INFINITY, f32::NEG_INFINITY];
        let special = &ALL[..if wild { 6 } else { 4 }];
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            s >> 8
        };
        (0..n)
            .map(|_| match next() {
                r if r % 8 == 0 => special[next() as usize % special.len()],
                r => r as f32 / (1u32 << 21) as f32 - 4.0,
            })
            .collect()
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: cell {i} is {g:e}, the reference {w:e}");
        }
    }

    const ROWS: [usize; 8] = [0, 1, 2, 3, 5, 7, 72, 73];
    const WIDE_COLS: [usize; 4] = [63, 64, 65, 96];
    const SHARED: [usize; 6] = [0, 1, 16, 64, 65, 150];
    const NARROW_ROWS: [usize; 5] = [1, 2, 3, 9, 40];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random shapes, every operand a strided `cols_range` view of a
        /// wider buffer, the output's other columns holding a sentinel.
        #[test]
        fn tiled_matmul_equals_the_ikj_loop(
            shape in (0usize..ROWS.len(), 0usize..SHARED.len()),
            cols in 1usize..=44,
            pads in ((0usize..3, 0usize..3), (0usize..3, 0usize..3), (0usize..3, 0usize..3)),
            seed in 0u32..u32::MAX,
        ) {
            let (n, m) = (ROWS[shape.0], SHARED[shape.1]);
            let (pad_a, pad_b, pad_out) = pads;
            let p = if cols <= 40 { cols } else { WIDE_COLS[cols - 41] };
            let width = |pad: (usize, usize), cols: usize| pad.0 + cols + pad.1;
            let (wa, wb, wo) = (width(pad_a, m), width(pad_b, p), width(pad_out, p));
            // Infinities turn most of a wide sum into NaN, so half the
            // cases go without them.
            let wild = seed % 2 == 1;
            let (a, b) = (values(seed, n * wa, wild), values(!seed, m * wb, wild));
            let a_view = MatRef::new(&a, n, wa).cols_range(pad_a.0, m);
            let b_view = MatRef::new(&b, m, wb).cols_range(pad_b.0, p);
            const SENTINEL: f32 = 1234.5;
            let (mut got, mut want) = (vec![SENTINEL; n * wo], vec![SENTINEL; n * wo]);
            let out_view = |buf| MatMut::new(buf, n, wo).cols_range(pad_out.0, p);
            matmul_into(out_view(&mut got), a_view, b_view);
            matmul_ikj_reference(out_view(&mut want), a_view, b_view);
            assert_same_bits(&got, &want, &format!("{n}x{m} * {m}x{p}"));
            for row in got.chunks_exact(wo.max(1)) {
                let outside = row[..pad_out.0].iter().chain(&row[pad_out.0 + p..]);
                prop_assert!(outside.into_iter().all(|&x| x == SENTINEL), "wrote outside the range");
            }

            // The wide `Q K^T` regime runs the same tiles over its
            // materialized `K^T`.
            if m > 0 && p >= 4 * m {
                let q = Tensor::from_vec(n, m, values(seed, n * m, wild));
                let keys = Tensor::from_vec(p, m, values(!seed, p * m, wild));
                let mut want = Tensor::zeros(n, p);
                matmul_ikj_reference(want.view_mut(), q.view(), keys.transpose().view());
                assert_same_bits(q.matmul_nt(&keys).data(), want.data(), "q * k^T");
            }
        }

        /// The narrow `Q K^T` regime (fewer than `4 * d_head` keys) is
        /// `dot_lanes` order in every cell: at `d_head` 8 and 16 through
        /// the eight-keys-at-a-time kernel, at 12 through the per-cell
        /// fallback. Every key count runs, in descending order so the
        /// reused `K^T` scratch shrinks under stale contents; Q, K and the
        /// output are strided views, and a one-row Q must give row 0.
        #[test]
        fn narrow_q_kt_equals_the_lane_order(
            shape in (0usize..3, 0usize..NARROW_ROWS.len()),
            pads in ((0usize..3, 0usize..3), (0usize..3, 0usize..3), (0usize..3, 0usize..3)),
            seed in 0u32..u32::MAX,
        ) {
            let (dh, n) = ([8, 16, 12][shape.0], NARROW_ROWS[shape.1]);
            let (pad_q, pad_k, pad_out) = pads;
            let wild = seed % 2 == 1;
            let wq = pad_q.0 + dh + pad_q.1;
            let q = values(seed, n * wq, wild);
            let q_view = MatRef::new(&q, n, wq).cols_range(pad_q.0, dh);
            let wk = pad_k.0 + dh + pad_k.1;
            const SENTINEL: f32 = 1234.5;
            let mut k_t = vec![f32::NAN; 7];
            for keys in (0..4 * dh).rev() {
                let k = values(!seed, keys * wk, wild);
                let k_view = MatRef::new(&k, keys, wk).cols_range(pad_k.0, dh);
                let wo = pad_out.0 + keys + pad_out.1;
                let mut got = vec![SENTINEL; n * wo];
                let out_view = MatMut::new(&mut got, n, wo).cols_range(pad_out.0, keys);
                matmul_nt_into(out_view, q_view, k_view, &mut k_t);
                let what = format!("{n}x{dh} * ({keys}x{dh})^T");
                let mut cells = Vec::new();
                for (i, row) in got.chunks_exact(wo.max(1)).enumerate() {
                    cells.extend_from_slice(&row[pad_out.0..pad_out.0 + keys]);
                    let mut outside = row[..pad_out.0].iter().chain(&row[pad_out.0 + keys..]);
                    prop_assert!(outside.all(|&x| x == SENTINEL), "{what}: wrote outside row {i}");
                }
                let want: Vec<f32> = (0..n)
                    .flat_map(|i| (0..keys).map(move |j| (i, j)))
                    .map(|(i, j)| dot_lanes_reference(q_view.row(i), k_view.row(j)))
                    .collect();
                assert_same_bits(&cells, &want, &what);

                let mut first = vec![SENTINEL; keys];
                let q_first = MatRef::new(&q[..wq], 1, wq).cols_range(pad_q.0, dh);
                matmul_nt_into(MatMut::new(&mut first, 1, keys), q_first, k_view, &mut k_t);
                assert_same_bits(&first, &cells[..keys], &format!("{what}, row 0 alone"));
            }
        }
    }

    /// A cell whose every product is `-0.0` is `+0.0` in `dot_lanes`
    /// order, because each lane starts from `0.0`; random values almost
    /// never make a whole cell of signed zeros.
    #[test]
    fn narrow_q_kt_lanes_start_from_positive_zero() {
        for dh in [8, 16] {
            let keys = 2 * dh + 3;
            let q = vec![0.0f32; 2 * dh];
            let k: Vec<f32> = (0..keys * dh).map(|i| -1.0 - i as f32).collect();
            let (q, k) = (MatRef::new(&q, 2, dh), MatRef::new(&k, keys, dh));
            let mut got = vec![f32::NAN; 2 * keys];
            matmul_nt_into(MatMut::new(&mut got, 2, keys), q, k, &mut Vec::new());
            assert!(got.iter().all(|x| x.to_bits() == 0), "d_head {dh}: {got:?}");
            assert_eq!(dot_lanes_reference(q.row(0), k.row(0)).to_bits(), 0);
        }
    }

    #[test]
    fn exp_approx_equals_the_cast_based_exponent() {
        let sweep = (-51_200..=51_200).map(|i| i as f32 / 512.0);
        let edges = [-87.0f32, 88.0, -87.000_01, 88.000_01, -86.999_99, 87.999_99, 0.0, -0.0];
        let wild = [1.0e-40, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN];
        for x in sweep.chain(edges).chain(wild) {
            let (got, want) = (exp_approx(x), exp_cast_reference(x));
            assert_eq!(got.to_bits(), want.to_bits(), "exp_approx({x:e}): {got:e}, reference {want:e}");
        }
        assert!(exp_approx(f32::NAN).is_nan() && exp_cast_reference(f32::NAN).is_nan());
    }

    #[test]
    fn softmax_equals_the_fused_loop() {
        let signed_zeros = |first: f32| {
            move |i: usize| match i % 3 {
                0 => first,
                1 => -first,
                _ => -(i as f32) * 0.5,
            }
        };
        for cols in (1usize..=17).chain([63, 64, 65, 72]) {
            #[expect(clippy::cast_possible_truncation, reason = "a small test seed")]
            let mut rows = values(cols as u32, 3 * cols, true);
            rows.iter_mut().for_each(|x| *x = if x.is_finite() { *x * 8.0 } else { *x });
            rows.extend(std::iter::repeat_n(f32::NEG_INFINITY, cols));
            // Rows 4-6: NaN mid-row, NaN as the last (tail) entry, only NaN.
            rows.extend((0..cols).map(|i| if i == cols / 2 { f32::NAN } else { i as f32 * 0.3 }));
            rows.extend((0..cols).map(|i| if i + 1 == cols { f32::NAN } else { i as f32 * -0.3 }));
            rows.extend(std::iter::repeat_n(f32::NAN, cols));
            // Rows 7-8: every entry <= 0 and the maximum a zero, met first
            // as -0.0 in row 7 and as +0.0 in row 8.
            rows.extend((0..cols).map(signed_zeros(-0.0)));
            rows.extend((0..cols).map(signed_zeros(0.0)));
            let mut want = rows.clone();
            softmax_rows_in_place(&mut rows, cols);
            softmax_reference(&mut want, cols);
            for (i, (g, w)) in rows.iter().zip(&want).enumerate() {
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "cols {cols} row {} cell {}: {g:e}, the reference {w:e}",
                    i / cols,
                    i % cols
                );
            }
            // NaN in, NaN out: the trainer's divergence guard reads it.
            for row in rows.chunks_exact(cols).skip(4).take(3) {
                assert!(row.iter().any(|x| x.is_nan()), "cols {cols}: NaN swallowed");
            }
        }
    }
}
