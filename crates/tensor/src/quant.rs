//! INT8 quantized inference kernels: symmetric per-output-channel weights,
//! per-tensor activations, exact integer accumulation, f32 dequant fused
//! into the GEMM's store.
//!
//! # Scheme
//!
//! Weights are quantized **per output channel**: each output row `o` gets a
//! symmetric scale `s_w[o] = amax(row_o) / 127` and values
//! `q = round(w / s_w[o])` clamped to `[-127, 127]` (the `-128` code is
//! never produced, which keeps the error bound symmetric). Activations are
//! quantized **per tensor** with a calibrated scale `s_x`. Accumulation is
//! plain `i32` — integer adds are exact and associative, so unlike the
//! float kernels there is *no* accumulation-order contract to preserve:
//! any blocking, tile height or thread split produces identical bits.
//!
//! The accumulator is exact as long as `k · 127 · 127 < 2³¹`
//! (`k < ~133 000`), which [`Q8Weights::quantize_rows`] asserts.
//!
//! Dequantization happens as the GEMM stores its tile:
//! `y[i,o] = acc[i,o] · (s_x · s_w[o]) + bias[o]`, then ReLU when asked —
//! a separate multiply and add, never a fused multiply-add, so every path
//! rounds exactly as the scalar formula does.
//!
//! # Quantizing once
//!
//! [`quantize_activations`] writes `i16` codes, the GEMM's operand type, in
//! one pass: `round(x / s_x)` with ties away from zero, clamped to ±127,
//! NaN to 0 — bit for bit [`quantize_one`]. When AVX2 is available at
//! runtime it rounds eight lanes at a time by truncating, comparing the
//! dropped fraction with one half and stepping away from zero; otherwise
//! it calls [`quantize_one`] per value. A convolution
//! ([`q8_conv_nhwc`]) quantizes whichever is smaller, its NHWC input or its
//! patch rows: a 3×3 layer quantizes the input once and [`im2row_nhwc`]
//! gathers the codes, since quantizing is elementwise and maps the zero
//! padding to code 0; a strided 1×1 layer quantizes its patch rows as they
//! are gathered, so it never touches the pixels it skips.
//!
//! # Layout
//!
//! Like the float kernel's panels, the packed weight buffer is arranged so
//! the inner loop reads one contiguous stream: output channels are grouped
//! in panels of [`Q8_PANEL`] (16), and within a panel the values for k-pair
//! `t` of all 16 channels sit back to back
//! (`…c₀k₀ c₀k₁ c₁k₀ c₁k₁ … c₁₅k₀ c₁₅k₁…`, as `i16`, an odd `k` padded with
//! a zero weight). That is exactly the operand shape of AVX2 `vpmaddwd`
//! (16 widening i16 multiply-adds per instruction). Activation codes are
//! plain `[m, k]` rows.
//!
//! # Tile and dispatch
//!
//! When `is_x86_feature_detected!` finds AVX2, the GEMM walks the output in
//! tiles of `MR` (6) rows by one panel, the tile's i32 sums held in 12 ymm
//! registers for the whole `k` loop: each k-pair loads the panel's weights
//! once and issues one broadcast and two `vpmaddwd` per row, an odd last
//! code pairs with the zero weight. The epilogue converts, scales, adds the
//! bias and applies ReLU in registers, then stores the f32 tile. Otherwise
//! a portable loop walks the same layout row by row with the same epilogue
//! formula. Nothing else selects between the paths, and both produce
//! identical bits.

use crate::parallel;

/// Output channels per packed weight panel (one AVX2 register pair of i32
/// accumulator lanes).
pub const Q8_PANEL: usize = 16;

/// Largest quantized magnitude: codes are clamped to `[-127, 127]`.
pub const Q8_MAX: f32 = 127.0;

/// Rows per register tile: 6 rows × 2 ymm accumulators = 12 of the 16 ymm
/// registers, leaving room for the panel's two weight vectors and a
/// broadcast.
#[cfg(target_arch = "x86_64")]
const MR: usize = 6;

/// Symmetric scale for a tensor whose absolute maximum is `amax` (a zero
/// tensor gets scale 1.0 so dequantization never divides by zero).
pub fn symmetric_scale(amax: f32) -> f32 {
    if amax > 0.0 && amax.is_finite() {
        amax / Q8_MAX
    } else {
        1.0
    }
}

/// Quantizes one f32 value with a symmetric scale: round-half-away, clamped
/// to `[-127, 127]`, NaN to 0. The definition every quantizer path matches
/// bit for bit.
#[inline]
pub fn quantize_one(v: f32, inv_scale: f32) -> i8 {
    (v * inv_scale).round().clamp(-Q8_MAX, Q8_MAX) as i8
}

/// Quantizes an activation slice with a per-tensor `scale` into i16 codes:
/// `out[i] = quantize_one(xs[i], 1 / scale)` on every path (see module
/// docs).
///
/// # Panics
/// Panics if `out` and `xs` differ in length.
pub fn quantize_activations(xs: &[f32], scale: f32, out: &mut [i16]) {
    assert_eq!(
        xs.len(),
        out.len(),
        "quantize_activations: bad output length"
    );
    let inv = 1.0 / scale;
    if avx2_available() {
        // SAFETY: gated on runtime AVX2 detection; `quantize_avx2` asserts
        // that `out` is as long as `xs` before its raw-pointer loop.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            quantize_avx2(xs, inv, out);
        }
    } else {
        quantize_portable(xs, inv, out);
    }
}

/// Portable quantizer: [`quantize_one`] per value.
fn quantize_portable(xs: &[f32], inv_scale: f32, out: &mut [i16]) {
    for (q, &v) in out.iter_mut().zip(xs) {
        *q = quantize_one(v, inv_scale) as i16;
    }
}

/// AVX2 quantizer: eight values per step through [`codes8_avx2`]; a
/// shorter tail takes the same step on a masked load and stores only its
/// own codes, so a short run (a 1×1 layer's few channels) costs one step.
///
/// # Safety
/// The caller must have detected AVX2 at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_avx2(xs: &[f32], inv_scale: f32, out: &mut [i16]) {
    use std::arch::x86_64::*;
    assert_eq!(xs.len(), out.len(), "quantize_avx2: bad output length");
    let inv = _mm256_set1_ps(inv_scale);
    let mut xc = xs.chunks_exact(8);
    let mut qc = out.chunks_exact_mut(8);
    for (x8, q8) in (&mut xc).zip(&mut qc) {
        // in bounds: both chunks hold exactly eight values
        let codes = codes8_avx2(_mm256_loadu_ps(x8.as_ptr()), inv);
        _mm_storeu_si128(q8.as_mut_ptr() as *mut __m128i, codes);
    }
    let (xt, qt) = (xc.remainder(), qc.into_remainder());
    let rem = xt.len();
    if rem > 0 {
        // in bounds: the mask loads lanes 0..rem only, and the stores below
        // write 4, 2 and 1 codes as the bits of rem < 8 say, rem in all
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem as i32), lane);
        let mut codes = codes8_avx2(_mm256_maskload_ps(xt.as_ptr(), mask), inv);
        let mut q = qt.as_mut_ptr();
        if rem & 4 != 0 {
            _mm_storel_epi64(q as *mut __m128i, codes);
            codes = _mm_srli_si128::<8>(codes);
            q = q.add(4);
        }
        if rem & 2 != 0 {
            _mm_storeu_si32(q as *mut u8, codes);
            codes = _mm_srli_si128::<4>(codes);
            q = q.add(2);
        }
        if rem & 1 != 0 {
            *q = _mm_extract_epi16::<0>(codes) as i16;
        }
    }
}

/// Eight codes `quantize_one(v, inv)` in i16 lanes.
///
/// Where `y = v·inv` has a fraction, `|y| < 2²³`, so `y − trunc(y)` and
/// `trunc(y) ± 1` are exact: stepping one away from zero when the dropped
/// fraction is at least ½ is `round`. Infinities keep their sign through
/// the clamp (their NaN fraction never compares); NaN lanes are zeroed.
///
/// # Safety
/// The caller must have detected AVX2 at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn codes8_avx2(
    v: std::arch::x86_64::__m256,
    inv: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let sign = _mm256_set1_ps(-0.0);
    let y = _mm256_mul_ps(v, inv);
    let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(y);
    let frac = _mm256_andnot_ps(sign, _mm256_sub_ps(y, t));
    let away = _mm256_or_ps(_mm256_and_ps(y, sign), _mm256_set1_ps(1.0));
    let step = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
    let r = _mm256_add_ps(t, _mm256_and_ps(step, away));
    let c = _mm256_min_ps(
        _mm256_max_ps(r, _mm256_set1_ps(-Q8_MAX)),
        _mm256_set1_ps(Q8_MAX),
    );
    let c = _mm256_and_ps(c, _mm256_cmp_ps::<_CMP_ORD_Q>(y, y));
    let i = _mm256_cvtps_epi32(c);
    _mm_packs_epi32(_mm256_castsi256_si128(i), _mm256_extracti128_si256::<1>(i))
}

/// Per-output-channel symmetrically quantized weights, packed into the
/// panel layout the i8 GEMM consumes (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Q8Weights {
    /// Panel-packed codes, widened to i16 at pack time (sign extension is
    /// free offline; `vpmaddwd` wants i16 operands).
    packed: Vec<i16>,
    /// Per-output-channel scales, length `out`.
    scales: Vec<f32>,
    out: usize,
    k: usize,
    /// `k` rounded up to a multiple of 2 (k-pair granularity), zero padded.
    k_pad: usize,
    /// `out` rounded up to a multiple of [`Q8_PANEL`], zero padded.
    out_pad: usize,
}

impl Q8Weights {
    /// Quantizes `rows` (`[out, k]` row-major, one output channel per row)
    /// with per-row symmetric scales and packs them.
    ///
    /// # Panics
    /// Panics on a length mismatch, empty dims, or `k` too large for exact
    /// i32 accumulation.
    pub fn quantize_rows(rows: &[f32], out: usize, k: usize) -> Q8Weights {
        assert!(out > 0 && k > 0, "Q8Weights: empty weight matrix");
        assert_eq!(rows.len(), out * k, "Q8Weights: bad rows length");
        let mut scales = vec![0.0f32; out];
        let mut codes = vec![0i8; out * k];
        for o in 0..out {
            let row = &rows[o * k..(o + 1) * k];
            let amax = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let s = symmetric_scale(amax);
            scales[o] = s;
            let inv = 1.0 / s;
            for (q, &v) in codes[o * k..(o + 1) * k].iter_mut().zip(row) {
                *q = quantize_one(v, inv);
            }
        }
        Q8Weights::from_quantized_rows(&codes, scales, out, k)
    }

    /// Rebuilds packed weights from raw quantized rows (`[out, k]` i8) and
    /// their per-channel scales — the artifact import path.
    ///
    /// # Panics
    /// Panics on length mismatches, empty dims, or `k` too large for exact
    /// i32 accumulation.
    pub fn from_quantized_rows(codes: &[i8], scales: Vec<f32>, out: usize, k: usize) -> Q8Weights {
        assert!(out > 0 && k > 0, "Q8Weights: empty weight matrix");
        assert_eq!(codes.len(), out * k, "Q8Weights: bad codes length");
        assert_eq!(scales.len(), out, "Q8Weights: bad scales length");
        assert!(
            (k as u64) * 127 * 127 < (1u64 << 31),
            "Q8Weights: k={k} overflows exact i32 accumulation"
        );
        let k_pad = k.next_multiple_of(2);
        let out_pad = out.next_multiple_of(Q8_PANEL);
        let mut packed = vec![0i16; out_pad * k_pad];
        let pair_stride = 2 * Q8_PANEL;
        for o in 0..out {
            let panel = o / Q8_PANEL;
            let lane = o % Q8_PANEL;
            let base = panel * (k_pad / 2) * pair_stride;
            for p in 0..k {
                packed[base + (p / 2) * pair_stride + lane * 2 + (p % 2)] = codes[o * k + p] as i16;
            }
        }
        Q8Weights {
            packed,
            scales,
            out,
            k,
            k_pad,
            out_pad,
        }
    }

    /// Number of output channels.
    pub fn out_dim(&self) -> usize {
        self.out
    }

    /// Reduction (input) dimension.
    pub fn k_dim(&self) -> usize {
        self.k
    }

    /// Per-output-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Unpacks the quantized codes back to `[out, k]` row-major i8 — the
    /// artifact export path (and the oracle input for the property tests).
    pub fn to_quantized_rows(&self) -> Vec<i8> {
        let mut rows = vec![0i8; self.out * self.k];
        let pair_stride = 2 * Q8_PANEL;
        for o in 0..self.out {
            let panel = o / Q8_PANEL;
            let lane = o % Q8_PANEL;
            let base = panel * (self.k_pad / 2) * pair_stride;
            for p in 0..self.k {
                rows[o * self.k + p] =
                    self.packed[base + (p / 2) * pair_stride + lane * 2 + (p % 2)] as i8;
            }
        }
        rows
    }

    /// The `(k_pad / 2) × 32` codes of panel `j`.
    fn panel(&self, j: usize) -> &[i16] {
        let len = self.k_pad * Q8_PANEL;
        &self.packed[j * len..(j + 1) * len]
    }
}

/// Reusable code buffers for the quantized layers: callers keep one per
/// pipeline and every layer reuses the allocations.
#[derive(Debug, Default, Clone)]
pub struct Q8Scratch {
    /// GEMM operand: `[m, k]` activation (or patch-row) codes.
    codes: Vec<i16>,
    /// A convolution's NHWC input, quantized once ahead of the gather.
    input: Vec<i16>,
}

/// `out[m, out] = dequant(codes[m, k] × w_qᵀ)`: the i16 GEMM over codes
/// from [`quantize_activations`], each element the exact i32 dot product
/// stored as `acc · (x_scale · s_w[o]) (+ bias[o]) (then ReLU)`. Row bands
/// fan out over `threads` workers once the problem reaches
/// [`parallel::PAR_MATMUL_MIN_FLOPS`] multiply-adds, as in
/// [`crate::f32_matmul_packed`]; the bits do not depend on `threads` or on
/// the dispatch path.
///
/// # Panics
/// Panics if `codes`, `bias` or `out` do not match `m` and the weight dims.
#[allow(clippy::too_many_arguments)]
pub fn q8_matmul(
    codes: &[i16],
    m: usize,
    w: &Q8Weights,
    x_scale: f32,
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut [f32],
    threads: usize,
) {
    let (k, n) = (w.k, w.out);
    assert_eq!(codes.len(), m * k, "q8_matmul: bad codes length");
    assert_eq!(out.len(), m * n, "q8_matmul: bad output length");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "q8_matmul: bad bias length");
    }
    if m == 0 || n == 0 {
        return;
    }
    let ep = Epilogue {
        x_scale,
        bias,
        relu,
    };
    let use_avx2 = avx2_available();
    let run = |r0: usize, band: &mut [f32]| {
        let xb = &codes[r0 * k..(r0 + band.len() / n) * k];
        if use_avx2 {
            // SAFETY: gated on runtime AVX2 detection. `band_avx2` asserts
            // that `xb` holds `k` codes for each of the band's rows, and
            // `tile_avx2` asserts each tile's code, panel and output
            // extents before its raw-pointer loop.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                band_avx2(xb, w, &ep, band);
            }
        } else {
            band_portable(xb, w, &ep, band);
        }
    };
    if threads <= 1 || m * k * n < parallel::PAR_MATMUL_MIN_FLOPS || m < 2 {
        run(0, out);
        return;
    }
    let rows_per = parallel::chunk_len_for(m, threads);
    parallel::for_each_chunk_in(threads, out, rows_per * n, |ci, band| {
        run(ci * rows_per, band)
    });
}

/// Fused quantized linear layer: quantize `x` with the calibrated
/// per-tensor `x_scale`, then [`q8_matmul`] into `out` (resized to
/// `m · out`).
///
/// # Panics
/// Panics on length mismatches between `x`, `bias` and the weight dims.
#[allow(clippy::too_many_arguments)]
pub fn q8_matmul_dequant(
    x: &[f32],
    m: usize,
    w: &Q8Weights,
    x_scale: f32,
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut Vec<f32>,
    threads: usize,
    scratch: &mut Q8Scratch,
) {
    assert_eq!(x.len(), m * w.k, "q8_matmul_dequant: bad activation length");
    scratch.codes.clear();
    scratch.codes.resize(x.len(), 0);
    quantize_activations(x, x_scale, &mut scratch.codes);
    out.clear();
    out.resize(m * w.out, 0.0);
    q8_matmul(&scratch.codes, m, w, x_scale, bias, relu, out, threads);
}

/// Quantized convolution over an NHWC input (`[n, h, w, c]`), producing
/// NHWC output (`[n, oh, ow, out]`, resized) and returning `(oh, ow)`.
/// `wq` holds `[out, kernel·kernel·c]` rows in the `(ky, kx, c)` patch
/// order of [`im2row_nhwc`]. The smaller of the input and the patch rows is
/// quantized (see module docs), then [`q8_matmul`] runs on the patch codes;
/// the output equals quantizing the f32 patch rows, bit for bit.
///
/// # Panics
/// Panics on length mismatches between `x`, `wq`, `bias` and the geometry.
#[allow(clippy::too_many_arguments)]
pub fn q8_conv_nhwc(
    x: &[f32],
    n: usize,
    h: usize,
    w: usize,
    c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    wq: &Q8Weights,
    x_scale: f32,
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut Vec<f32>,
    threads: usize,
    scratch: &mut Q8Scratch,
) -> (usize, usize) {
    assert_eq!(x.len(), n * h * w * c, "q8_conv_nhwc: bad input length");
    assert_eq!(wq.k, kernel * kernel * c, "q8_conv_nhwc: bad patch length");
    let win = Window {
        n,
        h,
        w,
        c,
        kh: kernel,
        kw: kernel,
        stride,
        pad,
    };
    let (oh, ow) = win.out_hw();
    let l = n * oh * ow;
    if l * wq.k <= x.len() {
        // the patch rows are the smaller (a 1×1 layer): quantize them as
        // they are gathered
        scratch.codes.clear();
        scratch.codes.resize(l * wq.k, 0);
        gather_quantized(x, &win, 1.0 / x_scale, &mut scratch.codes);
    } else {
        // the input is the smaller: quantize it once, then gather codes
        scratch.input.clear();
        scratch.input.resize(x.len(), 0);
        quantize_activations(x, x_scale, &mut scratch.input);
        win.gather(&scratch.input, &mut scratch.codes);
    }
    out.clear();
    out.resize(l * wq.out, 0.0);
    q8_matmul(&scratch.codes, l, wq, x_scale, bias, relu, out, threads);
    (oh, ow)
}

/// Whether the AVX2 fast paths are active (exposed so benches can report
/// which kernel they measured).
pub fn q8_kernel_is_avx2() -> bool {
    avx2_available()
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// The dequant epilogue both GEMM paths apply to each exact i32 sum.
struct Epilogue<'a> {
    x_scale: f32,
    bias: Option<&'a [f32]>,
    relu: bool,
}

impl Epilogue<'_> {
    /// `acc · (x_scale · s) (+ bias[o]) (then ReLU)` for output channel `o`
    /// with weight scale `s`: a separate multiply and add.
    #[inline]
    fn apply(&self, acc: i32, s: f32, o: usize) -> f32 {
        let mut y = acc as f32 * (s * self.x_scale);
        if let Some(b) = self.bias {
            y += b[o];
        }
        if self.relu {
            y.max(0.0)
        } else {
            y
        }
    }
}

/// Portable path: one row against one panel at a time, k-pairs in the
/// packed order, then the shared epilogue.
fn band_portable(x: &[i16], w: &Q8Weights, ep: &Epilogue, out: &mut [f32]) {
    let (k, n) = (w.k, w.out);
    for (xrow, orow) in x.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for j in 0..w.out_pad / Q8_PANEL {
            let mut acc = [0i32; Q8_PANEL];
            for (xp, wp) in xrow.chunks(2).zip(w.panel(j).chunks_exact(2 * Q8_PANEL)) {
                let x0 = xp[0] as i32;
                let x1 = xp.get(1).map_or(0, |&v| v as i32);
                for (c, a) in acc.iter_mut().enumerate() {
                    *a += wp[2 * c] as i32 * x0 + wp[2 * c + 1] as i32 * x1;
                }
            }
            let c0 = j * Q8_PANEL;
            for (c, (o, &a)) in orow[c0..].iter_mut().zip(&acc).enumerate() {
                *o = ep.apply(a, w.scales[c0 + c], c0 + c);
            }
        }
    }
}

/// AVX2 path over one row band: [`MR`]-row tiles, the last one shorter,
/// each against every panel.
///
/// # Safety
/// The caller must have detected AVX2 at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn band_avx2(x: &[i16], w: &Q8Weights, ep: &Epilogue, out: &mut [f32]) {
    let (k, n) = (w.k, w.out);
    let rows = out.len() / n;
    assert_eq!(x.len(), rows * k, "band_avx2: bad band length");
    // every panel's epilogue factors, zero past `n`: s_x·s_w[o], the bias
    let mut comb = vec![0.0f32; w.out_pad];
    let mut bias = vec![0.0f32; w.out_pad];
    for (o, (c, b)) in comb.iter_mut().zip(&mut bias).take(n).enumerate() {
        *c = w.scales[o] * ep.x_scale;
        *b = ep.bias.map_or(0.0, |b| b[o]);
    }
    for r0 in (0..rows).step_by(MR) {
        for j in 0..w.out_pad / Q8_PANEL {
            let c0 = j * Q8_PANEL;
            let cols = Q8_PANEL.min(n - c0);
            let (cj, bj) = (
                &comb[c0..c0 + Q8_PANEL],
                ep.bias.map(|_| &bias[c0..c0 + Q8_PANEL]),
            );
            let (xt, pt, ot) = (&x[r0 * k..], w.panel(j), &mut out[r0 * n + c0..]);
            // the tile height is the rows left, at most MR; AVX2 is enabled
            // on this function
            match rows - r0 {
                1 => tile_avx2::<1>(xt, k, pt, cj, bj, ep.relu, ot, n, cols),
                2 => tile_avx2::<2>(xt, k, pt, cj, bj, ep.relu, ot, n, cols),
                3 => tile_avx2::<3>(xt, k, pt, cj, bj, ep.relu, ot, n, cols),
                4 => tile_avx2::<4>(xt, k, pt, cj, bj, ep.relu, ot, n, cols),
                5 => tile_avx2::<5>(xt, k, pt, cj, bj, ep.relu, ot, n, cols),
                _ => tile_avx2::<MR>(xt, k, pt, cj, bj, ep.relu, ot, n, cols),
            }
        }
    }
}

/// An `R`×16 tile in `2R` ymm i32 accumulators held across the whole `k`
/// loop (row `i` of the tile reads codes `x[i·k..(i+1)·k]`), stored through
/// the dequant epilogue — `acc · comb (+ bias)`, a separate multiply and
/// add, then ReLU — into the first `cols` values of rows `0..R` of `out`
/// (row stride `n`). `comb` and `bias` hold the panel's 16 lanes.
///
/// # Safety
/// The caller must have detected AVX2 at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx2<const R: usize>(
    x: &[i16],
    k: usize,
    panel: &[i16],
    comb: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut [f32],
    n: usize,
    cols: usize,
) {
    use std::arch::x86_64::*;
    let pairs = k / 2;
    assert!(x.len() >= R * k, "tile_avx2: short codes");
    assert_eq!(
        panel.len(),
        k.div_ceil(2) * 2 * Q8_PANEL,
        "tile_avx2: bad panel"
    );
    assert!(
        comb.len() == Q8_PANEL && bias.is_none_or(|b| b.len() == Q8_PANEL),
        "tile_avx2: epilogue factors are not one panel wide"
    );
    assert!(
        (1..=Q8_PANEL).contains(&cols) && out.len() >= (R - 1) * n + cols,
        "tile_avx2: short output"
    );
    let (xp, wp) = (x.as_ptr(), panel.as_ptr());
    let mut acc = [[_mm256_setzero_si256(); 2]; R];
    for t in 0..pairs {
        // in bounds: 2t + 1 < k, so the pair at i·k + 2t lies inside row i,
        // and the panel's 32 codes at t·32 inside the panel
        let w0 = _mm256_loadu_si256(wp.add(t * 2 * Q8_PANEL) as *const __m256i);
        let w1 = _mm256_loadu_si256(wp.add(t * 2 * Q8_PANEL + Q8_PANEL) as *const __m256i);
        for (i, a) in acc.iter_mut().enumerate() {
            let pair = (xp.add(i * k + 2 * t) as *const i32).read_unaligned();
            let xb = _mm256_set1_epi32(pair);
            a[0] = _mm256_add_epi32(a[0], _mm256_madd_epi16(w0, xb));
            a[1] = _mm256_add_epi32(a[1], _mm256_madd_epi16(w1, xb));
        }
    }
    if k % 2 == 1 {
        // the odd last code, alone in its pair's low half against the
        // panel's last k-pair (whose high weights are the zero padding)
        let w0 = _mm256_loadu_si256(wp.add(pairs * 2 * Q8_PANEL) as *const __m256i);
        let w1 = _mm256_loadu_si256(wp.add(pairs * 2 * Q8_PANEL + Q8_PANEL) as *const __m256i);
        for (i, a) in acc.iter_mut().enumerate() {
            let xb = _mm256_set1_epi32(*xp.add(i * k + k - 1) as u16 as i32);
            a[0] = _mm256_add_epi32(a[0], _mm256_madd_epi16(w0, xb));
            a[1] = _mm256_add_epi32(a[1], _mm256_madd_epi16(w1, xb));
        }
    }
    // in bounds: `comb` and `bias` hold 16 lanes (asserted above)
    let (c0, c1) = (
        _mm256_loadu_ps(comb.as_ptr()),
        _mm256_loadu_ps(comb.as_ptr().add(8)),
    );
    let b = bias.map(|b| {
        (
            _mm256_loadu_ps(b.as_ptr()),
            _mm256_loadu_ps(b.as_ptr().add(8)),
        )
    });
    let zero = _mm256_setzero_ps();
    // lanes past `cols` are not stored
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let m0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(cols as i32), lane);
    let m1 = _mm256_cmpgt_epi32(_mm256_set1_epi32(cols as i32 - 8), lane);
    for (i, a) in acc.iter().enumerate() {
        let mut y0 = _mm256_mul_ps(_mm256_cvtepi32_ps(a[0]), c0);
        let mut y1 = _mm256_mul_ps(_mm256_cvtepi32_ps(a[1]), c1);
        if let Some((b0, b1)) = b {
            y0 = _mm256_add_ps(y0, b0);
            y1 = _mm256_add_ps(y1, b1);
        }
        if relu {
            y0 = _mm256_max_ps(y0, zero);
            y1 = _mm256_max_ps(y1, zero);
        }
        // in bounds: row i's `cols` values start at i·n, inside `out`
        // (asserted above); the masks store exactly those lanes
        let row = out.as_mut_ptr().add(i * n);
        if cols == Q8_PANEL {
            _mm256_storeu_ps(row, y0);
            _mm256_storeu_ps(row.add(8), y1);
        } else {
            _mm256_maskstore_ps(row, m0, y0);
            if cols > 8 {
                _mm256_maskstore_ps(row.add(8), m1, y1);
            }
        }
    }
}

/// The geometry of an NHWC patch gather: `n` images of `h`×`w`×`c`, a
/// `kh`×`kw` window moved by `stride`, `pad` zeros on each side.
struct Window {
    n: usize,
    h: usize,
    w: usize,
    c: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
}

impl Window {
    /// Output spatial size `(oh, ow)`.
    fn out_hw(&self) -> (usize, usize) {
        assert!(self.stride > 0, "im2row_nhwc: zero stride");
        (
            (self.h + 2 * self.pad - self.kh) / self.stride + 1,
            (self.w + 2 * self.pad - self.kw) / self.stride + 1,
        )
    }

    /// Walks the in-bounds runs of the gather: `run(src, dst, len)` for
    /// each kernel row and output position moves `len` input values from
    /// offset `src` to patch-row offset `dst`. Every patch-row value no run
    /// reaches is zero padding.
    ///
    /// In NHWC the `kx` taps of one output pixel are adjacent input pixels
    /// at any stride, so each kernel row's in-bounds taps form one
    /// contiguous `kw·c`-long run, shorter where the padding clips it.
    /// Always inlined, so a caller compiled for AVX2 inlines `run` too.
    #[inline(always)]
    fn runs(&self, mut run: impl FnMut(usize, usize, usize)) {
        let (oh, ow) = self.out_hw();
        let (h, w, c, kw) = (self.h, self.w, self.c, self.kw);
        let row_len = self.kh * kw * c;
        for ni in 0..self.n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row0 = ((ni * oh + oy) * ow + ox) * row_len;
                    // taps kx_lo..kx_hi land inside the image
                    let x0 = (ox * self.stride) as isize - self.pad as isize;
                    let kx_lo = (-x0).clamp(0, kw as isize) as usize;
                    let kx_hi = (w as isize - x0).clamp(kx_lo as isize, kw as isize) as usize;
                    let len = (kx_hi - kx_lo) * c;
                    let ix = (x0 + kx_lo as isize).max(0) as usize;
                    for ky in 0..self.kh {
                        let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                        if iy < 0 || iy >= h as isize || len == 0 {
                            continue;
                        }
                        let src = ((ni * h + iy as usize) * w + ix) * c;
                        run(src, row0 + (ky * kw + kx_lo) * c, len);
                    }
                }
            }
        }
    }

    /// Gathers `x` into zero-padded patch rows (see [`im2row_nhwc`]) and
    /// returns `(oh, ow)`.
    fn gather<T: Copy + Default>(&self, x: &[T], rows: &mut Vec<T>) -> (usize, usize) {
        let (oh, ow) = self.out_hw();
        rows.clear();
        rows.resize(self.n * oh * ow * self.kh * self.kw * self.c, T::default());
        self.runs(|src, dst, len| rows[dst..dst + len].copy_from_slice(&x[src..src + len]));
        (oh, ow)
    }
}

/// NHWC im2row: gathers `x` (`[n, h, w, c]`) into patch rows
/// (`[n · oh · ow, kh · kw · c]`, receptive field in `(ky, kx, c)` order,
/// zero padding) so a convolution becomes one GEMM against `[out, kh·kw·c]`
/// weight rows. Returns `(oh, ow)`. Generic over the element, so the float
/// path gathers values and the quantized path gathers codes; the gather is
/// one block copy per kernel row and output position.
#[allow(clippy::too_many_arguments)]
pub fn im2row_nhwc<T: Copy + Default>(
    x: &[T],
    n: usize,
    h: usize,
    w: usize,
    c: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    rows: &mut Vec<T>,
) -> (usize, usize) {
    assert_eq!(x.len(), n * h * w * c, "im2row_nhwc: bad input length");
    let win = Window {
        n,
        h,
        w,
        c,
        kh,
        kw,
        stride,
        pad,
    };
    win.gather(x, rows)
}

/// Quantizes `x`'s patch rows as they are gathered into `rows` (zeroed,
/// `win`'s full patch-row length): the codes of quantizing the f32 patch
/// rows, touching only the input values some window reaches.
fn gather_quantized(x: &[f32], win: &Window, inv_scale: f32, rows: &mut [i16]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: gated on runtime AVX2 detection; every run is a pair of
        // equal-length subslices, which `quantize_avx2` asserts.
        unsafe { gather_quantized_avx2(x, win, inv_scale, rows) };
        return;
    }
    win.runs(|src, dst, len| {
        quantize_portable(&x[src..src + len], inv_scale, &mut rows[dst..dst + len]);
    });
}

/// [`gather_quantized`] with [`quantize_avx2`] inlined into the walk, so a
/// short run (a 1×1 layer's `c` channels) costs no call.
///
/// # Safety
/// The caller must have detected AVX2 at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_quantized_avx2(x: &[f32], win: &Window, inv_scale: f32, rows: &mut [i16]) {
    win.runs(|src, dst, len| {
        quantize_avx2(&x[src..src + len], inv_scale, &mut rows[dst..dst + len]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_f32(seed: u64, n: usize, amp: f32) -> Vec<f32> {
        // xorshift-ish deterministic values in [-amp, amp]
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 0.5e-3) * amp
            })
            .collect()
    }

    /// The composition the fused kernel replaces: quantize with
    /// [`quantize_one`], integer matmul, then the scalar dequant formula.
    #[allow(clippy::too_many_arguments)]
    fn reference(
        x: &[f32],
        m: usize,
        w: &Q8Weights,
        x_scale: f32,
        bias: Option<&[f32]>,
        relu: bool,
    ) -> Vec<f32> {
        let (k, out) = (w.k_dim(), w.out_dim());
        let inv = 1.0 / x_scale;
        let xq: Vec<i8> = x.iter().map(|&v| quantize_one(v, inv)).collect();
        let codes = w.to_quantized_rows();
        let mut y = vec![0.0f32; m * out];
        for i in 0..m {
            for o in 0..out {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += xq[i * k + p] as i32 * codes[o * k + p] as i32;
                }
                let mut v = acc as f32 * (w.scales()[o] * x_scale);
                if let Some(b) = bias {
                    v += b[o];
                }
                y[i * out + o] = if relu { v.max(0.0) } else { v };
            }
        }
        y
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (out, k) in [(1, 1), (3, 5), (16, 8), (17, 9), (32, 33)] {
            let rows = det_f32(out as u64 * 31 + k as u64, out * k, 2.0);
            let w = Q8Weights::quantize_rows(&rows, out, k);
            let codes = w.to_quantized_rows();
            let w2 = Q8Weights::from_quantized_rows(&codes, w.scales().to_vec(), out, k);
            assert_eq!(w, w2);
        }
    }

    /// Every quantizer path against [`quantize_one`], bit for bit: seeded
    /// random bit patterns (any sign, exponent, NaN payload) and named edge
    /// cases — ties `±(n + ½)` and their neighbours, ±127.5, ±128, ±0,
    /// subnormals, ±inf, NaN — at several scales and at every slice length
    /// mod 8. The portable path runs on every host, the AVX2 path wherever
    /// it is available.
    #[test]
    fn quantizer_matches_quantize_one_bit_for_bit() {
        let mut named = vec![
            0.0f32,
            -0.0,
            0.49999997,
            -0.49999997,
            127.5,
            -127.5,
            128.0,
            -128.0,
            126.5,
            8_388_607.5,
            8_388_608.0,
            -16_777_217.0,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN
        ];
        for n in 0..=130 {
            let tie = n as f32 + 0.5;
            for v in [tie, tie.next_down(), tie.next_up()] {
                named.extend([v, -v]);
            }
        }
        // 1, ½ and 2 keep the ties exact in y = v / scale
        let scales = [1.0f32, 0.5, 2.0, symmetric_scale(3.7), 1e-3, 1e-40, 3e38];
        let check = |label: &str, inputs: &[f32]| {
            for &scale in &scales {
                let inv = 1.0 / scale;
                let want: Vec<i16> = inputs
                    .iter()
                    .map(|&v| quantize_one(v, inv) as i16)
                    .collect();
                let at = |path: &str, got: &[i16]| {
                    let i = (0..want.len()).find(|&i| got[i] != want[i]);
                    i.map(|i| {
                        format!(
                            "{label}: {path} path, scale {scale:e}, len {}: x[{i}] = {:e} ({:#010x}) gave {} want {}",
                            want.len(),
                            inputs[i],
                            inputs[i].to_bits(),
                            got[i],
                            want[i]
                        )
                    })
                };
                let mut got = vec![i16::MIN; inputs.len()];
                quantize_activations(inputs, scale, &mut got);
                assert_eq!(at("dispatched", &got), None);
                got.fill(i16::MIN);
                quantize_portable(inputs, inv, &mut got);
                assert_eq!(at("portable", &got), None);
                #[cfg(target_arch = "x86_64")]
                if avx2_available() {
                    got.fill(i16::MIN);
                    // SAFETY: AVX2 was detected just above; the lengths
                    // match.
                    unsafe { quantize_avx2(inputs, inv, &mut got) };
                    assert_eq!(at("avx2", &got), None);
                }
            }
        };
        check("named cases", &named);
        for seed in 0..96u64 {
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            // lengths 0..=40: every residue mod 8, with and without a full
            // eight-lane step ahead of the tail
            let xs: Vec<f32> = (0..seed as usize % 41)
                .map(|i| {
                    if (seed + i as u64).is_multiple_of(3) {
                        named[(s as usize ^ i) % named.len()]
                    } else {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        f32::from_bits((s >> 32) as u32)
                    }
                })
                .collect();
            check(&format!("seed {seed}"), &xs);
        }
    }

    /// The fused GEMM against the quantize → integer matmul → scalar
    /// dequant composition, compared with `==` on f32: odd and even `k`,
    /// row counts off the tile height, widths off the panel width, every
    /// bias/ReLU combination, and thread splits.
    #[test]
    fn matmul_matches_integer_oracle_all_shapes() {
        let mut scratch = Q8Scratch::default();
        for (m, k, out) in [
            (1, 1, 1),
            (2, 7, 3),
            (5, 16, 16),
            (4, 33, 17),
            (3, 64, 40),
            (7, 27, 9),
            (13, 2, 48),
            (6, 5, 20),
        ] {
            let rows = det_f32(9 + m as u64, out * k, 1.5);
            let w = Q8Weights::quantize_rows(&rows, out, k);
            let xf = det_f32(77 + k as u64, m * k, 3.0);
            let xs = symmetric_scale(xf.iter().fold(0.0f32, |a, &v| a.max(v.abs())));
            let bias = det_f32(5 + out as u64, out, 0.5);
            for (with_bias, relu) in [(false, false), (true, false), (false, true), (true, true)] {
                let b = with_bias.then_some(bias.as_slice());
                let want = reference(&xf, m, &w, xs, b, relu);
                for threads in [1, 4] {
                    let mut y = vec![f32::NAN; 3];
                    q8_matmul_dequant(&xf, m, &w, xs, b, relu, &mut y, threads, &mut scratch);
                    let at = format!(
                        "m={m} k={k} out={out} bias={with_bias} relu={relu} threads={threads}"
                    );
                    assert_eq!(y.len(), want.len(), "{at}");
                    for (i, (g, e)) in y.iter().zip(&want).enumerate() {
                        assert_eq!(g.to_bits(), e.to_bits(), "{at}: at {i}");
                    }
                }
            }
        }
    }

    /// The fallback a host without AVX2 runs, against the dispatched path
    /// bit for bit, so an AVX2 host still tests it.
    #[test]
    fn portable_gemm_matches_dispatch_path() {
        for seed in 0..24u64 {
            let m = 1 + (seed as usize * 5) % 14;
            let out = 1 + (seed as usize * 7) % 37;
            let k = 1 + (seed as usize * 11) % 29;
            let w = Q8Weights::quantize_rows(&det_f32(seed * 3 + 1, out * k, 1.0), out, k);
            let xf = det_f32(seed * 3 + 2, m * k, 2.0);
            let bias = det_f32(seed * 3 + 3, out, 1.0);
            let xs = symmetric_scale(2.0);
            let mut codes = vec![0i16; m * k];
            quantize_activations(&xf, xs, &mut codes);
            for (with_bias, relu) in [(false, false), (true, false), (false, true), (true, true)] {
                let ep = Epilogue {
                    x_scale: xs,
                    bias: with_bias.then_some(bias.as_slice()),
                    relu,
                };
                let mut got = vec![f32::NAN; m * out];
                band_portable(&codes, &w, &ep, &mut got);
                let mut want = vec![f32::NAN; m * out];
                q8_matmul(&codes, m, &w, xs, ep.bias, relu, &mut want, 1);
                for (i, (g, e)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "seed {seed}: m {m} out {out} k {k} bias {with_bias} relu {relu} at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn im2row_1x1_is_identity_reshape() {
        let (n, h, w, c) = (2, 3, 4, 5);
        let x = det_f32(3, n * h * w * c, 1.0);
        let mut rows = Vec::new();
        let (oh, ow) = im2row_nhwc(&x, n, h, w, c, 1, 1, 1, 0, &mut rows);
        assert_eq!((oh, ow), (h, w));
        assert_eq!(rows, x);
    }

    /// Against a per-element gather written from the definition, over
    /// seeded shapes: k in {1, 3}, stride in {1, 2}, pad in {0, 1}, and
    /// widths down to 1, where a 3-wide kernel row is clipped on both
    /// sides. The gather moves data without arithmetic, so bits match; and
    /// gathering the quantized input gives the quantized patch rows.
    #[test]
    fn im2row_matches_direct_gather() {
        for seed in 0..64u64 {
            let draw = det_f32(seed + 100, 4, 1.0);
            let pick = |i: usize, lo: usize, hi: usize| {
                lo + ((draw[i].abs() * 1e4) as usize) % (hi - lo + 1)
            };
            let (k, stride, pad) = (
                [1, 3][seed as usize % 2],
                1 + (seed as usize / 2) % 2,
                (seed as usize / 4) % 2,
            );
            let min_hw = (k - 2 * pad.min(k / 2)).max(1);
            let (n, c) = (pick(0, 1, 2), pick(1, 1, 5));
            // every third seed takes the narrowest width (1 when k = 3 and
            // pad = 1: both ends of a kernel row fall in the padding)
            let h = pick(2, min_hw, 7);
            let w = if seed % 3 == 0 {
                min_hw
            } else {
                pick(3, min_hw, 7)
            };
            let x = det_f32(seed, n * h * w * c, 1.0);
            let mut rows = vec![f32::NAN; 3]; // stale contents must be cleared
            let (oh, ow) = im2row_nhwc(&x, n, h, w, c, k, k, stride, pad, &mut rows);
            let at =
                format!("seed {seed}: n {n} h {h} w {w} c {c} k {k} stride {stride} pad {pad}");
            assert_eq!(
                (oh, ow),
                (
                    (h + 2 * pad - k) / stride + 1,
                    (w + 2 * pad - k) / stride + 1
                ),
                "{at}"
            );
            assert_eq!(rows.len(), n * oh * ow * k * k * c, "{at}");
            for ni in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        for ky in 0..k {
                            for kx in 0..k {
                                for ci in 0..c {
                                    let y = (oy * stride + ky) as isize - pad as isize;
                                    let xx = (ox * stride + kx) as isize - pad as isize;
                                    let inside =
                                        y >= 0 && y < h as isize && xx >= 0 && xx < w as isize;
                                    let want = if inside {
                                        x[((ni * h + y as usize) * w + xx as usize) * c + ci]
                                    } else {
                                        0.0
                                    };
                                    let got =
                                        rows[(((ni * oh + oy) * ow + ox) * k * k + ky * k + kx)
                                            * c
                                            + ci];
                                    assert_eq!(
                                        got.to_bits(),
                                        want.to_bits(),
                                        "{at}: at [{ni},{oy},{ox}] tap ({ky},{kx}) c {ci}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
            let scale = symmetric_scale(0.9);
            let mut xq = vec![0i16; x.len()];
            quantize_activations(&x, scale, &mut xq);
            let mut codes = vec![7i16; 3];
            im2row_nhwc(&xq, n, h, w, c, k, k, stride, pad, &mut codes);
            let mut want = vec![0i16; rows.len()];
            quantize_activations(&rows, scale, &mut want);
            assert_eq!(codes, want, "{at}: gathered codes");
        }
    }
}
