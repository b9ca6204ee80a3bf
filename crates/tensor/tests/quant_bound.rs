//! Analytic error bounds for the INT8 kernels against an f64 oracle.
//!
//! With symmetric scales `s_x = amax_x/127` (per tensor) and
//! `s_w[o] = amax_w[o]/127` (per output channel), each product term
//! carries at most `|w|·s_x/2 + s_x·127·s_w/2` of rounding error, so one
//! output element accumulates at most
//!
//! ```text
//! |y_int8 − y_f64| ≤ k · amax_x · amax_w[o] / 127
//! ```
//!
//! plus f32 dequantization slop. The properties below check that bound
//! element-wise on random matmuls and on the serving convolution
//! ([`q8_conv_nhwc`]), and that the quantized layer is bitwise independent
//! of the thread count and of how a caller splits its rows (integer adds
//! are exact, so blocking cannot change results).
//!
//! Each property is a seeded loop whose assertions name the failing seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yollo_tensor::{
    parallel, q8_conv_nhwc, q8_matmul, q8_matmul_dequant, quantize_activations, symmetric_scale,
    Q8Scratch, Q8Weights, Q8_MAX,
};

/// Allowed error for one output element: the analytic γ bound plus slop
/// for the f32 dequant multiply and bias add.
fn gamma_bound(k: usize, amax_x: f32, amax_w_row: f32) -> f64 {
    let gamma = k as f64 * amax_x as f64 * amax_w_row as f64 / Q8_MAX as f64;
    gamma * 1.05 + 1e-4
}

fn amax(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// f64 oracle: `x [m,k] · wᵀ [out,k] + bias`, optional ReLU.
fn oracle_matmul(
    x: &[f32],
    w_rows: &[f32],
    bias: Option<&[f32]>,
    m: usize,
    k: usize,
    out: usize,
    relu: bool,
) -> Vec<f64> {
    let mut y = vec![0.0f64; m * out];
    for i in 0..m {
        for o in 0..out {
            let mut acc = match bias {
                Some(b) => b[o] as f64,
                None => 0.0,
            };
            for j in 0..k {
                acc += x[i * k + j] as f64 * w_rows[o * k + j] as f64;
            }
            y[i * out + o] = if relu { acc.max(0.0) } else { acc };
        }
    }
    y
}

/// Per-channel INT8 matmul stays within the analytic γ bound of the
/// f64 oracle, element-wise, across panel-boundary shapes, bias
/// presence and the fused ReLU epilogue.
#[test]
fn int8_matmul_meets_gamma_bound() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (m, k, out) = (
            rng.gen_range(1..6),
            rng.gen_range(1..48),
            rng.gen_range(1..40),
        );
        let (xr, wr) = (rng.gen_range(0.1f32..8.0), rng.gen_range(0.1f32..4.0));
        let (with_bias, relu): (bool, bool) = (rng.gen(), rng.gen());
        let seed_x: u64 = rng.gen();
        // derive the contents from one drawn scalar with a fixed hash
        let x: Vec<f32> = (0..m * k)
            .map(|i| {
                let h = i as u64 ^ seed_x;
                let u =
                    ((h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as f32) / (1u64 << 31) as f32;
                (u - 0.5) * 2.0 * xr
            })
            .collect();
        let w_rows: Vec<f32> = (0..out * k)
            .map(|i| {
                let h = (i as u64).wrapping_add(0xABCD) ^ seed_x.rotate_left(17);
                let u =
                    ((h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 33) as f32) / (1u64 << 31) as f32;
                (u - 0.5) * 2.0 * wr
            })
            .collect();
        let bias: Option<Vec<f32>> =
            with_bias.then(|| (0..out).map(|o| (o as f32 * 0.37).sin() * wr).collect());

        let wq = Q8Weights::quantize_rows(&w_rows, out, k);
        let x_scale = symmetric_scale(amax(&x));
        let mut got = Vec::new();
        let mut scratch = Q8Scratch::default();
        q8_matmul_dequant(
            &x,
            m,
            &wq,
            x_scale,
            bias.as_deref(),
            relu,
            &mut got,
            1,
            &mut scratch,
        );
        let want = oracle_matmul(&x, &w_rows, bias.as_deref(), m, k, out, relu);

        let ax = amax(&x);
        for i in 0..m {
            for o in 0..out {
                let aw = amax(&w_rows[o * k..(o + 1) * k]);
                let bound = gamma_bound(k, ax, aw);
                let err = (got[i * out + o] as f64 - want[i * out + o]).abs();
                assert!(
                    err <= bound,
                    "seed {seed}: ({i},{o}): err {err:.6} > γ bound {bound:.6} \
                     (k={k}, amax_x={ax}, amax_w={aw})"
                );
            }
        }
    }
}

/// The serving INT8 convolution (input quantized once, codes gathered,
/// i16 GEMM with the dequant on store) stays within the γ bound of a direct
/// f64 convolution, with `k = kh·kw·c` and `amax_x` taken over the
/// (zero-padded) input.
#[test]
fn int8_conv_meets_gamma_bound() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, h, w) = (
            rng.gen_range(1..3),
            rng.gen_range(3..8),
            rng.gen_range(3..8),
        );
        let (c, out) = (rng.gen_range(1..5), rng.gen_range(1..20));
        let (kern, stride) = (rng.gen_range(1..4), rng.gen_range(1..3));
        let (xr, wr) = (rng.gen_range(0.1f32..4.0), rng.gen_range(0.1f32..2.0));
        let seed_x: u64 = rng.gen();
        // h, w >= 3 >= kern: the kernel always fits the padded input
        let pad = kern / 2;
        let x: Vec<f32> = (0..n * h * w * c)
            .map(|i| {
                let hh = (i as u64) ^ seed_x;
                let u =
                    ((hh.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as f32) / (1u64 << 31) as f32;
                (u - 0.5) * 2.0 * xr
            })
            .collect();
        let klen = kern * kern * c;
        let w_rows: Vec<f32> = (0..out * klen)
            .map(|i| {
                let hh = (i as u64).wrapping_add(77) ^ seed_x.rotate_left(29);
                let u =
                    ((hh.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 33) as f32) / (1u64 << 31) as f32;
                (u - 0.5) * 2.0 * wr
            })
            .collect();

        let wq = Q8Weights::quantize_rows(&w_rows, out, klen);
        let x_scale = symmetric_scale(amax(&x));
        let mut got = Vec::new();
        let mut scratch = Q8Scratch::default();
        let (oh, ow) = q8_conv_nhwc(
            &x,
            n,
            h,
            w,
            c,
            kern,
            stride,
            pad,
            &wq,
            x_scale,
            None,
            false,
            &mut got,
            1,
            &mut scratch,
        );

        // f64 oracle straight off the NHWC input (receptive field walked in
        // the same (ky, kx, c) order the GEMM rows use)
        let ax = amax(&x);
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for o in 0..out {
                        let mut acc = 0.0f64;
                        for ky in 0..kern {
                            for kx in 0..kern {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                for ci in 0..c {
                                    let xv = x[((ni * h + iy as usize) * w + ix as usize) * c + ci];
                                    let wv = w_rows[o * klen + (ky * kern + kx) * c + ci];
                                    acc += xv as f64 * wv as f64;
                                }
                            }
                        }
                        let aw = amax(&w_rows[o * klen..(o + 1) * klen]);
                        let bound = gamma_bound(klen, ax, aw);
                        let got_v = got[(((ni * oh + oy) * ow + ox) * out) + o] as f64;
                        let err = (got_v - acc).abs();
                        assert!(
                            err <= bound,
                            "seed {seed}: conv ({ni},{oy},{ox},{o}): err {err:.6} > γ bound {bound:.6}"
                        );
                    }
                }
            }
        }
    }
}

/// `[m, k]` activations in [-8, 8) and `[out, k]` weight rows in [-4, 4),
/// hashed from one drawn seed, with the rows quantized and the
/// activations' symmetric scale.
fn hashed_matmul(m: usize, k: usize, out: usize, seed_x: u64) -> (Vec<f32>, Q8Weights, f32) {
    let x: Vec<f32> = (0..m * k)
        .map(|i| {
            ((((i as u64) ^ seed_x).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / 1000.0)
                - 8.0
        })
        .collect();
    let w_rows: Vec<f32> = (0..out * k)
        .map(|i| {
            ((((i as u64).wrapping_add(3) ^ seed_x).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40)
                as f32
                / 2000.0)
                - 4.0
        })
        .collect();
    let xs = symmetric_scale(amax(&x));
    (x, Q8Weights::quantize_rows(&w_rows, out, k), xs)
}

/// The i16 GEMM accumulates in exact i32 and dequantizes each element on
/// its own, so the quantized layer is bitwise identical for every thread
/// count. These shapes stay under the fan-out threshold, so every width
/// takes the serial path; the next property runs above it.
#[test]
fn int8_matmul_is_thread_count_invariant() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (m, k, out) = (
            rng.gen_range(1..10),
            rng.gen_range(1..40),
            rng.gen_range(1..36),
        );
        let (x, wq, xs) = hashed_matmul(m, k, out, rng.gen());
        let bias: Vec<f32> = (0..out).map(|o| o as f32 * 0.01 - 0.1).collect();
        let mut scratch = Q8Scratch::default();
        let mut reference = Vec::new();
        q8_matmul_dequant(
            &x,
            m,
            &wq,
            xs,
            Some(&bias),
            false,
            &mut reference,
            1,
            &mut scratch,
        );
        let bits = |ys: &[f32]| ys.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [2, 3, 8] {
            let mut y = Vec::new();
            q8_matmul_dequant(
                &x,
                m,
                &wq,
                xs,
                Some(&bias),
                false,
                &mut y,
                threads,
                &mut scratch,
            );
            assert_eq!(
                bits(&y),
                bits(&reference),
                "seed {seed}: thread count {threads} changed bits"
            );
        }
    }
}

/// Above the fan-out threshold each worker owns a different row band, and
/// a caller may split the rows itself (the flat pass runs each image's
/// convolutions as calls of their own): neither may change a bit, since
/// every output element is one exact i32 sum dequantized on its own.
#[test]
fn int8_matmul_is_bitwise_thread_and_split_invariant() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (m, k, out) = (
            rng.gen_range(300..360),
            rng.gen_range(100..140),
            rng.gen_range(70..90),
        );
        assert!(m * k * out >= parallel::PAR_MATMUL_MIN_FLOPS);
        let (x, wq, xs) = hashed_matmul(m, k, out, rng.gen());
        let mut codes = vec![0i16; m * k];
        quantize_activations(&x, xs, &mut codes);
        let bias: Vec<f32> = (0..out).map(|o| o as f32 * 0.01 - 0.1).collect();
        let bits = |ys: &[f32]| ys.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut one = vec![0.0f32; m * out];
        q8_matmul(&codes, m, &wq, xs, Some(&bias), true, &mut one, 1);
        for threads in 2..=4 {
            let mut many = vec![0.0f32; m * out];
            q8_matmul(&codes, m, &wq, xs, Some(&bias), true, &mut many, threads);
            assert_eq!(
                bits(&many),
                bits(&one),
                "seed {seed}: threads {threads} changed bits"
            );
        }
        let cut = rng.gen_range(1..m);
        let mut split = vec![0.0f32; m * out];
        let (top, bottom) = split.split_at_mut(cut * out);
        q8_matmul(&codes[..cut * k], cut, &wq, xs, Some(&bias), true, top, 1);
        let rest = m - cut;
        q8_matmul(
            &codes[cut * k..],
            rest,
            &wq,
            xs,
            Some(&bias),
            true,
            bottom,
            1,
        );
        assert_eq!(
            bits(&split),
            bits(&one),
            "seed {seed}: a row split at {cut} changed bits"
        );
    }
}
