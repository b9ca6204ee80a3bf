//! Graph-free fused inference layers with optional INT8 quantization.
//!
//! The training layers ([`crate::Linear`], [`crate::Conv2d`]) run through
//! the autodiff tape and NCHW tensors. Serving wants neither: this module
//! provides **fused** twins that operate on plain `f32` slices in NHWC
//! layout, record nothing, fuse bias + activation into the GEMM epilogue,
//! and can be post-training-quantized to INT8.
//!
//! Each fused layer starts in float mode (weights copied from the
//! training layer). A calibration pass runs the float path while a
//! [`QuantCalibration`] observes every GEMM input's absolute maximum;
//! [`QuantCalibration::scale_for`] then derives a conservative per-tensor
//! activation scale from the largest one observed, and
//! `quantize(&calib)` switches the layer to the INT8 kernels
//! ([`yollo_tensor::q8_matmul_dequant`] for [`FusedLinear`],
//! [`yollo_tensor::q8_conv_nhwc`] for [`FusedConv2d`]) with
//! per-output-channel weight scales. Each quantized layer quantizes its
//! input once into i16 codes (a convolution before its im2row gather, or
//! its patch rows as they are gathered when those are fewer), and its
//! GEMM dequantizes with bias and ReLU as it stores: no f32 patch rows and
//! no i32 accumulator buffer. The outputs are bit for bit those of
//! quantizing the f32 patch rows with [`yollo_tensor::quantize_one`], an
//! integer matmul and the scalar dequant formula.
//!
//! Fused layers also know how to export themselves into (and import from)
//! a versioned [`ModelArtifact`], keyed by their parameter names, so a
//! quantized model can be shipped to serving replicas without the
//! training stack.

use std::collections::BTreeMap;

use crate::artifact::{ArtifactError, ModelArtifact, TensorData, TensorRecord};
use yollo_tensor::{
    f32_matmul_packed, im2row_nhwc, q8_conv_nhwc, q8_matmul_dequant, symmetric_scale, F32Panels,
    Q8Scratch, Q8Weights,
};

/// Fixed-point factor for recording activation magnitudes as integers
/// (2¹⁶ per unit).
const CALIB_FIXED_POINT: f64 = 65536.0;

/// One layer's observed range: the largest absolute maximum seen (×2¹⁶
/// fixed point, rounded up) and the number of observations.
#[derive(Debug, Default, Clone, Copy)]
struct ObservedRange {
    max: u64,
    count: u64,
}

/// Per-layer activation-range collector for post-training calibration.
///
/// Each observed layer keeps the exact running maximum of its GEMM input's
/// absolute maxima (×2¹⁶ fixed point) and an observation count, keyed by
/// layer name. It records unconditionally, so calibration is immune to
/// the telemetry switch and does not depend on the telemetry histogram
/// layout. The same samples are mirrored into the global obs registry as
/// `quant.calib.<layer>` histograms, so calibration runs are inspectable
/// with the normal telemetry tooling.
#[derive(Debug, Default)]
pub struct QuantCalibration {
    ranges: BTreeMap<String, ObservedRange>,
}

impl QuantCalibration {
    /// An empty calibration.
    pub fn new() -> QuantCalibration {
        QuantCalibration::default()
    }

    /// Records the absolute maximum of `xs` for `layer`.
    pub fn observe(&mut self, layer: &str, xs: &[f32]) {
        let amax = xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let fixed = (amax as f64 * CALIB_FIXED_POINT).ceil() as u64;
        let range = self.ranges.entry(layer.to_string()).or_default();
        range.max = range.max.max(fixed);
        range.count += 1;
        yollo_obs::registry()
            .histogram(&format!("quant.calib.{layer}"))
            .record(fixed);
    }

    /// Number of observations recorded for `layer`.
    pub fn observations(&self, layer: &str) -> u64 {
        self.ranges.get(layer).map_or(0, |r| r.count)
    }

    /// Layers observed so far.
    pub fn layers(&self) -> impl Iterator<Item = &str> {
        self.ranges.keys().map(String::as_str)
    }

    /// Symmetric per-tensor activation scale for `layer`. The observed
    /// maximum `M` (fixed point) is rounded up to the power of two above
    /// it: 1 when `M ≤ 1`, otherwise `2^(⌊log₂ M⌋+1)`, capped at 2⁶³. That
    /// makes the scale conservative (at most 2× the true amax, so nothing
    /// clips and at most one bit of resolution is spent).
    pub fn scale_for(&self, layer: &str) -> Option<f32> {
        let upper = match self.ranges.get(layer)?.max {
            0 | 1 => 1,
            m => 1u64 << (m.ilog2() + 1).min(63),
        };
        Some(symmetric_scale((upper as f64 / CALIB_FIXED_POINT) as f32))
    }
}

/// Reusable buffers shared by a whole fused pipeline.
#[derive(Debug, Default, Clone)]
pub struct FusedScratch {
    /// INT8 code buffers.
    pub q8: Q8Scratch,
    /// Float im2row patch-row buffer (float-mode convolutions).
    pub rows: Vec<f32>,
    /// Intermediate activation buffer (FFN hidden layers).
    pub tmp: Vec<f32>,
}

/// The quantized half of a fused layer: packed weights plus the calibrated
/// input scale.
#[derive(Debug, Clone)]
struct QuantState {
    wq: Q8Weights,
    in_scale: f32,
}

/// A fused fully-connected layer over `[rows, in]` f32 slices.
#[derive(Debug, Clone)]
pub struct FusedLinear {
    name: String,
    /// `w_oi` packed for the float GEMM.
    panels: F32Panels,
    /// `[out, in]` output-channel rows — the quantization source layout.
    w_oi: Vec<f32>,
    bias: Option<Vec<f32>>,
    in_dim: usize,
    out_dim: usize,
    q: Option<QuantState>,
}

impl FusedLinear {
    /// Builds a float-mode fused layer from plain parts. `w_io` is
    /// `[in, out]` row-major (the training layout of `y = x W`).
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn from_parts(
        name: impl Into<String>,
        w_io: Vec<f32>,
        bias: Option<Vec<f32>>,
        in_dim: usize,
        out_dim: usize,
    ) -> FusedLinear {
        assert_eq!(w_io.len(), in_dim * out_dim, "FusedLinear: bad weight len");
        if let Some(b) = &bias {
            assert_eq!(b.len(), out_dim, "FusedLinear: bad bias len");
        }
        let mut w_oi = vec![0.0f32; in_dim * out_dim];
        for i in 0..in_dim {
            for o in 0..out_dim {
                w_oi[o * in_dim + i] = w_io[i * out_dim + o];
            }
        }
        FusedLinear {
            name: name.into(),
            panels: F32Panels::pack(&w_oi, out_dim, in_dim),
            w_oi,
            bias,
            in_dim,
            out_dim,
            q: None,
        }
    }

    /// Layer name (artifact/calibration key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Whether the INT8 path is active.
    pub fn is_quantized(&self) -> bool {
        self.q.is_some()
    }

    /// Runs the layer on `rows` input rows. `calib`, when set, forces the
    /// float path and records the GEMM input range.
    ///
    /// # Panics
    /// Panics if `x.len() != rows · in_dim`.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        x: &[f32],
        rows: usize,
        relu: bool,
        out: &mut Vec<f32>,
        threads: usize,
        scratch: &mut FusedScratch,
        calib: Option<&mut QuantCalibration>,
    ) {
        assert_eq!(x.len(), rows * self.in_dim, "FusedLinear: bad input len");
        if let Some(c) = calib {
            c.observe(&self.name, x);
        } else if let Some(q) = &self.q {
            q8_matmul_dequant(
                x,
                rows,
                &q.wq,
                q.in_scale,
                self.bias.as_deref(),
                relu,
                out,
                threads,
                &mut scratch.q8,
            );
            return;
        }
        out.clear();
        out.resize(rows * self.out_dim, 0.0);
        let bias = self.bias.as_deref();
        f32_matmul_packed(x, rows, &self.panels, bias, relu, out, threads);
    }

    /// Switches to the INT8 kernel using the calibrated input scale.
    ///
    /// # Panics
    /// Panics if `calib` never observed this layer.
    pub fn quantize(&mut self, calib: &QuantCalibration) {
        let in_scale = calib
            .scale_for(&self.name)
            .unwrap_or_else(|| panic!("no calibration range for layer {}", self.name));
        self.q = Some(QuantState {
            wq: Q8Weights::quantize_rows(&self.w_oi, self.out_dim, self.in_dim),
            in_scale,
        });
    }

    /// Exports this layer's tensors into `art` (quantized records when the
    /// INT8 path is active, float records otherwise).
    pub fn export_into(&self, art: &mut ModelArtifact) {
        export_gemm_layer(
            art,
            &self.name,
            &self.w_oi,
            self.out_dim,
            self.in_dim,
            vec![self.out_dim, self.in_dim],
            self.bias.as_deref(),
            self.q.as_ref(),
        );
    }

    /// Restores this layer's weights (and quantization state, if the
    /// artifact carries INT8 records) from `art`.
    ///
    /// # Errors
    /// Typed [`ArtifactError`]s on missing tensors or shape mismatches.
    pub fn import_from(&mut self, art: &ModelArtifact) -> Result<(), ArtifactError> {
        let (w_oi, q) =
            import_gemm_layer(art, &self.name, self.out_dim, self.in_dim, &mut self.bias)?;
        self.panels.repack(&[&w_oi], self.in_dim);
        self.w_oi = w_oi;
        self.q = q;
        Ok(())
    }
}

/// A fused 2-D convolution over NHWC f32 slices, lowered to patch rows +
/// GEMM.
#[derive(Debug, Clone)]
pub struct FusedConv2d {
    name: String,
    /// `w_oi` packed for the float GEMM over patch rows.
    panels: F32Panels,
    /// `[out, kh·kw·c]` output-channel rows (quantization source); the
    /// patch axis is in `(ky, kx, c)` order to match [`im2row_nhwc`].
    w_oi: Vec<f32>,
    bias: Option<Vec<f32>>,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    q: Option<QuantState>,
}

impl FusedConv2d {
    /// Builds a float-mode fused convolution from plain parts. `w_ockk` is
    /// the training layout `[out, c, kh, kw]` row-major.
    ///
    /// # Panics
    /// Panics on length mismatches.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        name: impl Into<String>,
        w_ockk: &[f32],
        bias: Option<Vec<f32>>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> FusedConv2d {
        let kk = kernel * kernel;
        let patch = kk * in_channels;
        assert_eq!(
            w_ockk.len(),
            out_channels * patch,
            "FusedConv2d: bad weight len"
        );
        if let Some(b) = &bias {
            assert_eq!(b.len(), out_channels, "FusedConv2d: bad bias len");
        }
        // reorder [o][c][ky][kx] → [o][(ky·kw+kx)·c + c_i] (NHWC patch order)
        let mut w_oi = vec![0.0f32; out_channels * patch];
        for o in 0..out_channels {
            for c in 0..in_channels {
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        w_oi[o * patch + (ky * kernel + kx) * in_channels + c] =
                            w_ockk[((o * in_channels + c) * kernel + ky) * kernel + kx];
                    }
                }
            }
        }
        FusedConv2d {
            name: name.into(),
            panels: F32Panels::pack(&w_oi, out_channels, patch),
            w_oi,
            bias,
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            q: None,
        }
    }

    /// Layer name (artifact/calibration key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Whether the INT8 path is active.
    pub fn is_quantized(&self) -> bool {
        self.q.is_some()
    }

    /// Output spatial size for an `h`×`w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Runs the convolution on an NHWC input (`[n, h, w, in_channels]`),
    /// producing NHWC output (`[n, oh, ow, out_channels]`) and returning
    /// `(oh, ow)`. `calib`, when set, forces the float path and records
    /// the GEMM input range.
    ///
    /// # Panics
    /// Panics if `x.len() != n · h · w · in_channels`.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        x: &[f32],
        n: usize,
        h: usize,
        w: usize,
        relu: bool,
        out: &mut Vec<f32>,
        threads: usize,
        scratch: &mut FusedScratch,
        calib: Option<&mut QuantCalibration>,
    ) -> (usize, usize) {
        if let (None, Some(q)) = (&calib, &self.q) {
            return q8_conv_nhwc(
                x,
                n,
                h,
                w,
                self.in_channels,
                self.kernel,
                self.stride,
                self.pad,
                &q.wq,
                q.in_scale,
                self.bias.as_deref(),
                relu,
                out,
                threads,
                &mut scratch.q8,
            );
        }
        let mut rows = std::mem::take(&mut scratch.rows);
        let (oh, ow) = im2row_nhwc(
            x,
            n,
            h,
            w,
            self.in_channels,
            self.kernel,
            self.kernel,
            self.stride,
            self.pad,
            &mut rows,
        );
        let l = n * oh * ow;
        if let Some(c) = calib {
            c.observe(&self.name, &rows);
        }
        out.clear();
        out.resize(l * self.out_channels, 0.0);
        let bias = self.bias.as_deref();
        f32_matmul_packed(&rows, l, &self.panels, bias, relu, out, threads);
        scratch.rows = rows;
        (oh, ow)
    }

    /// Switches to the INT8 kernel using the calibrated input scale.
    ///
    /// # Panics
    /// Panics if `calib` never observed this layer.
    pub fn quantize(&mut self, calib: &QuantCalibration) {
        let in_scale = calib
            .scale_for(&self.name)
            .unwrap_or_else(|| panic!("no calibration range for layer {}", self.name));
        let patch = self.kernel * self.kernel * self.in_channels;
        self.q = Some(QuantState {
            wq: Q8Weights::quantize_rows(&self.w_oi, self.out_channels, patch),
            in_scale,
        });
    }

    /// Exports this layer's tensors into `art`.
    pub fn export_into(&self, art: &mut ModelArtifact) {
        let patch = self.kernel * self.kernel * self.in_channels;
        export_gemm_layer(
            art,
            &self.name,
            &self.w_oi,
            self.out_channels,
            patch,
            vec![
                self.out_channels,
                self.kernel,
                self.kernel,
                self.in_channels,
            ],
            self.bias.as_deref(),
            self.q.as_ref(),
        );
    }

    /// Restores this layer's weights (and quantization state) from `art`.
    ///
    /// # Errors
    /// Typed [`ArtifactError`]s on missing tensors or shape mismatches.
    pub fn import_from(&mut self, art: &ModelArtifact) -> Result<(), ArtifactError> {
        let patch = self.kernel * self.kernel * self.in_channels;
        let (w_oi, q) =
            import_gemm_layer(art, &self.name, self.out_channels, patch, &mut self.bias)?;
        self.panels.repack(&[&w_oi], patch);
        self.w_oi = w_oi;
        self.q = q;
        Ok(())
    }
}

/// A fused two-layer FFN (`ReLU` between) over `[rows, in]` slices.
#[derive(Debug, Clone)]
pub struct FusedFfn {
    /// First layer (ReLU fused into its epilogue).
    pub fc1: FusedLinear,
    /// Second layer.
    pub fc2: FusedLinear,
}

impl FusedFfn {
    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.fc2.out_dim()
    }

    /// Runs both layers; the hidden activation lives in `scratch.tmp`.
    pub fn forward(
        &self,
        x: &[f32],
        rows: usize,
        out: &mut Vec<f32>,
        threads: usize,
        scratch: &mut FusedScratch,
        mut calib: Option<&mut QuantCalibration>,
    ) {
        let mut hidden = std::mem::take(&mut scratch.tmp);
        self.fc1.forward(
            x,
            rows,
            true,
            &mut hidden,
            threads,
            scratch,
            calib.as_deref_mut(),
        );
        self.fc2
            .forward(&hidden, rows, false, out, threads, scratch, calib);
        scratch.tmp = hidden;
    }

    /// Quantizes both layers.
    ///
    /// # Panics
    /// Panics if either layer has no calibration range.
    pub fn quantize(&mut self, calib: &QuantCalibration) {
        self.fc1.quantize(calib);
        self.fc2.quantize(calib);
    }

    /// Exports both layers into `art`.
    pub fn export_into(&self, art: &mut ModelArtifact) {
        self.fc1.export_into(art);
        self.fc2.export_into(art);
    }

    /// Restores both layers from `art`.
    ///
    /// # Errors
    /// Typed [`ArtifactError`]s on missing tensors or shape mismatches.
    pub fn import_from(&mut self, art: &ModelArtifact) -> Result<(), ArtifactError> {
        self.fc1.import_from(art)?;
        self.fc2.import_from(art)
    }
}

/// Shared export for GEMM-shaped layers: INT8 codes + scales + input scale
/// when quantized, float `[out, k]` rows otherwise, bias alongside.
#[allow(clippy::too_many_arguments)]
fn export_gemm_layer(
    art: &mut ModelArtifact,
    name: &str,
    w_oi: &[f32],
    out: usize,
    k: usize,
    logical_dims: Vec<usize>,
    bias: Option<&[f32]>,
    q: Option<&QuantState>,
) {
    match q {
        Some(q) => {
            art.push(TensorRecord::int8(
                format!("{name}.wq"),
                logical_dims,
                q.wq.scales().to_vec(),
                q.wq.to_quantized_rows(),
            ));
            art.push(TensorRecord::float32(
                format!("{name}.in_scale"),
                vec![1],
                vec![q.in_scale],
            ));
        }
        None => {
            debug_assert_eq!(w_oi.len(), out * k);
            art.push(TensorRecord::float32(
                format!("{name}.w"),
                logical_dims,
                w_oi.to_vec(),
            ));
        }
    }
    if let Some(b) = bias {
        art.push(TensorRecord::float32(
            format!("{name}.b"),
            vec![b.len()],
            b.to_vec(),
        ));
    }
}

/// Shared import for GEMM-shaped layers. Returns the float `[out, k]` rows
/// (dequantized when the artifact carries INT8 records) and the
/// quantization state, and refreshes `bias` in place when present.
fn import_gemm_layer(
    art: &ModelArtifact,
    name: &str,
    out: usize,
    k: usize,
    bias: &mut Option<Vec<f32>>,
) -> Result<(Vec<f32>, Option<QuantState>), ArtifactError> {
    let expect_numel = out * k;
    let (w_oi, q) = if let Some(rec) = art.tensor(&format!("{name}.wq")) {
        let codes = match &rec.data {
            TensorData::I8(v) => v,
            other => {
                return Err(ArtifactError::ShapeMismatch(format!(
                    "{name}.wq: expected i8 data, found {:?}",
                    other.dtype()
                )))
            }
        };
        if codes.len() != expect_numel || rec.scales.len() != out {
            return Err(ArtifactError::ShapeMismatch(format!(
                "{name}.wq: expected {out}×{k} codes with {out} scales, found {} codes / {} scales",
                codes.len(),
                rec.scales.len()
            )));
        }
        if rec.zero_points.iter().any(|&z| z != 0) {
            return Err(ArtifactError::ShapeMismatch(format!(
                "{name}.wq: affine zero points not supported by the symmetric kernel"
            )));
        }
        let scale_rec = art.require(&format!("{name}.in_scale"))?;
        let in_scale = match &scale_rec.data {
            TensorData::F32(v) if v.len() == 1 => v[0],
            _ => {
                return Err(ArtifactError::ShapeMismatch(format!(
                    "{name}.in_scale: expected one f32"
                )))
            }
        };
        if !(in_scale.is_finite() && in_scale > 0.0) {
            return Err(ArtifactError::ShapeMismatch(format!(
                "{name}.in_scale: invalid scale {in_scale}"
            )));
        }
        // reconstruct the float rows so the float path stays usable
        let mut w_oi = vec![0.0f32; expect_numel];
        for o in 0..out {
            let s = rec.scales[o];
            for p in 0..k {
                w_oi[o * k + p] = codes[o * k + p] as f32 * s;
            }
        }
        let wq = Q8Weights::from_quantized_rows(codes, rec.scales.clone(), out, k);
        (w_oi, Some(QuantState { wq, in_scale }))
    } else {
        let rec = art.require(&format!("{name}.w"))?;
        let data = match &rec.data {
            TensorData::F32(v) => v,
            other => {
                return Err(ArtifactError::ShapeMismatch(format!(
                    "{name}.w: expected f32 data, found {:?}",
                    other.dtype()
                )))
            }
        };
        if data.len() != expect_numel {
            return Err(ArtifactError::ShapeMismatch(format!(
                "{name}.w: expected {expect_numel} elements, found {}",
                data.len()
            )));
        }
        (data.clone(), None)
    };
    if let Some(b) = bias {
        let rec = art.require(&format!("{name}.b"))?;
        let data = match &rec.data {
            TensorData::F32(v) => v,
            _ => {
                return Err(ArtifactError::ShapeMismatch(format!(
                    "{name}.b: expected f32 data"
                )))
            }
        };
        if data.len() != b.len() {
            return Err(ArtifactError::ShapeMismatch(format!(
                "{name}.b: expected {} elements, found {}",
                b.len(),
                data.len()
            )));
        }
        b.copy_from_slice(data);
    }
    Ok((w_oi, q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Binder, Conv2d, Ffn, Linear};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use yollo_tensor::{quantize_one, Conv2dSpec, Graph, Tensor};

    /// The composition the int8 layers replace: f32 rows (a convolution's
    /// `im2row_nhwc` patch rows, a linear layer's input), `quantize_one`
    /// per value, an integer matmul over the layer's codes, then the scalar
    /// dequant formula.
    fn unfused_int8(
        rows: &[f32],
        m: usize,
        q: &QuantState,
        bias: Option<&[f32]>,
        relu: bool,
    ) -> Vec<f32> {
        let (k, out) = (q.wq.k_dim(), q.wq.out_dim());
        let inv = 1.0 / q.in_scale;
        let xq: Vec<i8> = rows.iter().map(|&v| quantize_one(v, inv)).collect();
        let codes = q.wq.to_quantized_rows();
        let mut y = vec![0.0f32; m * out];
        for i in 0..m {
            for o in 0..out {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += xq[i * k + p] as i32 * codes[o * k + p] as i32;
                }
                let mut v = acc as f32 * (q.wq.scales()[o] * q.in_scale);
                if let Some(b) = bias {
                    v += b[o];
                }
                y[i * out + o] = if relu { v.max(0.0) } else { v };
            }
        }
        y
    }

    fn uniform(rng: &mut StdRng, n: usize, amp: f32) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-amp..amp)).collect()
    }

    /// Quantized `FusedConv2d` and `FusedLinear` against [`unfused_int8`],
    /// bit for bit: k in {1, 3}, stride in {1, 2}, pad in {0, 1} (both
    /// quantize-first and gather-first convolutions), output widths 9, 12,
    /// 20, 28 and 48, odd and even reduction lengths, row counts off the
    /// 6-row tile, bias and ReLU on and off, threads 1 to 4. The layers run
    /// on inputs twice the calibrated range, so codes clamp at ±127 too.
    #[test]
    fn int8_layers_match_unfused_composition_exactly() {
        let widths = [9, 12, 20, 28, 48];
        // one scratch for every case: codes left by a previous shape must
        // never leak into the next
        let mut scratch = FusedScratch::default();
        for seed in 0..80u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (kernel, stride, pad): (usize, usize, usize) = (
                [1, 3][seed as usize % 2],
                1 + (seed as usize / 2) % 2,
                (seed as usize / 4) % 2,
            );
            let out = widths[(seed as usize / 8) % widths.len()];
            let (with_bias, relu) = ((seed / 40) % 2 == 1, rng.gen::<bool>());
            let bias = with_bias.then(|| uniform(&mut rng, out, 0.5));
            let b = bias.as_deref();

            let c = rng.gen_range(1..6);
            let n = rng.gen_range(1..3);
            let min_hw = kernel.saturating_sub(2 * pad).max(1);
            let (h, w) = (rng.gen_range(min_hw..8), rng.gen_range(min_hw..8));
            let w_ockk = uniform(&mut rng, out * c * kernel * kernel, 1.0);
            let mut conv =
                FusedConv2d::from_parts("c", &w_ockk, bias.clone(), c, out, kernel, stride, pad);
            let x = uniform(&mut rng, n * h * w * c, 2.0);
            let half: Vec<f32> = x.iter().map(|v| v * 0.5).collect();
            let mut calib = QuantCalibration::new();
            let mut y = Vec::new();
            conv.forward(
                &half,
                n,
                h,
                w,
                relu,
                &mut y,
                1,
                &mut scratch,
                Some(&mut calib),
            );
            conv.quantize(&calib);
            let mut rows = Vec::new();
            let (oh, ow) = im2row_nhwc(&x, n, h, w, c, kernel, kernel, stride, pad, &mut rows);
            let want = unfused_int8(&rows, n * oh * ow, conv.q.as_ref().unwrap(), b, relu);

            let in_dim: usize = [1, 7, 32, 33][rng.gen_range(0..4usize)];
            let m = rng.gen_range(1..14);
            let w_io = uniform(&mut rng, in_dim * out, 1.0);
            let mut lin = FusedLinear::from_parts("l", w_io, bias.clone(), in_dim, out);
            let xl = uniform(&mut rng, m * in_dim, 2.0);
            let half: Vec<f32> = xl.iter().map(|v| v * 0.5).collect();
            lin.forward(&half, m, relu, &mut y, 1, &mut scratch, Some(&mut calib));
            lin.quantize(&calib);
            let want_l = unfused_int8(&xl, m, lin.q.as_ref().unwrap(), b, relu);

            for threads in 1..=4 {
                let at = format!(
                    "seed {seed}: n {n} h {h} w {w} c {c} k {kernel} stride {stride} pad {pad} \
                     out {out} bias {with_bias} relu {relu} threads {threads}"
                );
                let mut got = vec![f32::NAN; 5];
                let hw = conv.forward(&x, n, h, w, relu, &mut got, threads, &mut scratch, None);
                assert_eq!(hw, (oh, ow), "{at}");
                assert_eq!(got.len(), want.len(), "{at}");
                for (i, (g, e)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), e.to_bits(), "{at}: conv at {i}: {g} vs {e}");
                }
                lin.forward(&xl, m, relu, &mut got, threads, &mut scratch, None);
                assert_eq!(got.len(), want_l.len(), "{at}: linear m {m} in {in_dim}");
                for (i, (g, e)) in got.iter().zip(&want_l).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "{at}: linear m {m} in {in_dim} at {i}: {g} vs {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_linear_float_matches_training_layer() {
        let mut rng = StdRng::seed_from_u64(41);
        let l = Linear::new("l", 6, 4, true, &mut rng);
        let fused = l.fused();
        let x = Tensor::<f64>::randn(&[5, 6], &mut rng);
        let g = Graph::new();
        let want = l.forward(&Binder::new(&g), g.leaf(x.clone())).value();
        let xf: Vec<f32> = x.as_slice().iter().map(|&v| v as f32).collect();
        let mut out = Vec::new();
        let mut scratch = FusedScratch::default();
        fused.forward(&xf, 5, false, &mut out, 1, &mut scratch, None);
        for (got, &w) in out.iter().zip(want.as_slice()) {
            assert!((*got as f64 - w).abs() < 1e-5, "got {got}, want {w}");
        }
    }

    #[test]
    fn fused_conv_float_matches_training_layer_nhwc() {
        let mut rng = StdRng::seed_from_u64(42);
        let spec = Conv2dSpec { stride: 2, pad: 1 };
        let conv = Conv2d::new("c", 3, 5, 3, spec, true, &mut rng);
        let fused = conv.fused();
        let x = Tensor::<f64>::randn(&[2, 3, 8, 6], &mut rng);
        let g = Graph::new();
        let want = conv.forward(&Binder::new(&g), g.leaf(x.clone())).value(); // [2, 5, oh, ow]
        let (n, c, h, w) = (2, 3, 8, 6);
        let mut nhwc = vec![0.0f32; n * h * w * c];
        for ni in 0..n {
            for ci in 0..c {
                for y in 0..h {
                    for xx in 0..w {
                        nhwc[((ni * h + y) * w + xx) * c + ci] = x.at(&[ni, ci, y, xx]) as f32;
                    }
                }
            }
        }
        let mut out = Vec::new();
        let mut scratch = FusedScratch::default();
        let (oh, ow) = fused.forward(&nhwc, n, h, w, false, &mut out, 1, &mut scratch, None);
        assert_eq!((oh, ow), conv.output_hw(h, w));
        for ni in 0..n {
            for oc in 0..5 {
                for y in 0..oh {
                    for xx in 0..ow {
                        let got = out[((ni * oh + y) * ow + xx) * 5 + oc] as f64;
                        let w_ = want.at(&[ni, oc, y, xx]);
                        assert!((got - w_).abs() < 1e-4, "got {got}, want {w_}");
                    }
                }
            }
        }
    }

    #[test]
    fn quantized_linear_tracks_float_within_bound() {
        let mut rng = StdRng::seed_from_u64(43);
        let l = Linear::new("l", 32, 16, true, &mut rng);
        let mut fused = l.fused();
        let x = Tensor::<f32>::rand_uniform(&[8, 32], -2.0, 2.0, &mut rng);
        let xf = x.as_slice();
        let mut calib = QuantCalibration::new();
        let mut scratch = FusedScratch::default();
        let mut float_out = Vec::new();
        fused.forward(
            xf,
            8,
            false,
            &mut float_out,
            1,
            &mut scratch,
            Some(&mut calib),
        );
        fused.quantize(&calib);
        assert!(fused.is_quantized());
        let mut q_out = Vec::new();
        fused.forward(xf, 8, false, &mut q_out, 1, &mut scratch, None);
        // analytic bound: k · amax_x · amax_w / 127 per output (see
        // tensor quant property tests); here just assert it's close
        for (q, f) in q_out.iter().zip(&float_out) {
            assert!((q - f).abs() < 0.2, "quantized {q} vs float {f}");
        }
    }

    #[test]
    fn ffn_artifact_roundtrip_preserves_quantized_outputs() {
        let mut rng = StdRng::seed_from_u64(44);
        let ffn = Ffn::new("f", 12, 24, 12, &mut rng);
        let mut fused = ffn.fused();
        let x = Tensor::<f32>::rand_uniform(&[4, 12], -1.5, 1.5, &mut rng);
        let mut calib = QuantCalibration::new();
        let mut scratch = FusedScratch::default();
        let mut out = Vec::new();
        fused.forward(x.as_slice(), 4, &mut out, 1, &mut scratch, Some(&mut calib));
        fused.quantize(&calib);
        let mut want = Vec::new();
        fused.forward(x.as_slice(), 4, &mut want, 1, &mut scratch, None);

        let mut art = ModelArtifact::new("{}");
        fused.export_into(&mut art);
        let art = ModelArtifact::from_bytes(&art.to_bytes()).expect("roundtrip");
        let mut fresh = ffn.fused();
        fresh.import_from(&art).expect("import");
        assert!(fresh.fc1.is_quantized() && fresh.fc2.is_quantized());
        let mut got = Vec::new();
        fresh.forward(x.as_slice(), 4, &mut got, 1, &mut scratch, None);
        // scale-exact: same codes + same scales ⇒ identical outputs
        assert_eq!(got, want);
    }

    #[test]
    fn import_shape_mismatch_is_typed() {
        let mut rng = StdRng::seed_from_u64(45);
        let l = Linear::new("l", 4, 3, true, &mut rng);
        let wrong = Linear::new("l", 5, 3, true, &mut rng);
        let mut art = ModelArtifact::new("{}");
        wrong.fused().export_into(&mut art);
        let mut fused = l.fused();
        assert!(matches!(
            fused.import_from(&art),
            Err(ArtifactError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn calibration_scale_is_conservative() {
        let mut c = QuantCalibration::new();
        c.observe("x", &[0.5, -3.7, 1.0]);
        c.observe("x", &[0.1]);
        let s = c.scale_for("x").expect("observed");
        // scale must cover the observed amax (no clipping)…
        assert!(s * 127.0 >= 3.7, "scale {s} clips amax 3.7");
        // …but stay within the 2× power-of-two slack
        assert!(s * 127.0 <= 3.7 * 2.01, "scale {s} too loose");
        assert_eq!(c.observations("x"), 2);
        assert!(c.scale_for("never").is_none());
    }

    /// The rule calibration followed while it read the telemetry
    /// histogram: the top log2 bucket's middle, rounded up to a power of
    /// two.
    fn bucket_rule_scale(observed: &[f32]) -> f32 {
        let mut h = yollo_obs::StreamHistogram::new();
        for &amax in observed {
            h.record((amax as f64 * CALIB_FIXED_POINT).ceil() as u64);
        }
        let upper = h.quantile(1.0).max(1).next_power_of_two();
        symmetric_scale((upper as f64 / CALIB_FIXED_POINT) as f32)
    }

    #[test]
    fn exact_max_scale_matches_the_bucket_rule_at_its_boundaries() {
        let amaxes = [
            0.0,
            2f32.powi(-17),
            2f32.powi(-16),
            0.5,
            1.0,
            3.7,
            2f32.powi(20),
            f32::MAX,
            f32::INFINITY,
        ];
        for amax in amaxes {
            // the maximum arrives between two smaller observations
            let observed = [amax / 4.0, amax, amax / 2.0];
            let mut c = QuantCalibration::new();
            for &x in &observed {
                c.observe("x", &[-x, x / 3.0]);
            }
            let got = c.scale_for("x").expect("observed");
            let want = bucket_rule_scale(&observed);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "amax {amax}: {got} vs {want}"
            );
        }
        // fixed points: ≤ 2^-16 rounds up to one unit, 3.7 to 4, and
        // anything past 2^47 to the 2^63 cap
        let scale_of = |amax: f32| {
            let mut c = QuantCalibration::new();
            c.observe("x", &[amax]);
            c.scale_for("x").unwrap()
        };
        assert_eq!(scale_of(0.0), 2f32.powi(-16) / 127.0);
        assert_eq!(scale_of(2f32.powi(-16)), 2f32.powi(-16) / 127.0);
        assert_eq!(scale_of(3.7), 4.0 / 127.0);
        assert_eq!(scale_of(f32::INFINITY), 2f32.powi(47) / 127.0);
    }
}
