//! Graph-free NHWC fused twins of [`crate::Backbone`] for the quantized
//! serving pipeline.
//!
//! Built from a trained backbone via [`crate::Backbone::fused`]; runs the
//! same residual-stage math (`relu(conv2(relu(conv1 x)) + shortcut(x))`
//! plus identity blocks) directly on flat `f32` NHWC slices without
//! touching the autodiff tape, with every convolution lowered through
//! [`yollo_nn::FusedConv2d`] so the whole stack can be calibrated and
//! post-training-quantized to INT8 in one pass.
//!
//! [`FusedBackbone::forward`] takes one image at a time: its scratch (the
//! stage activations and every convolution's patch rows) is sized by one
//! image, whatever the batch the caller serves.

use yollo_nn::{ArtifactError, FusedConv2d, FusedScratch, ModelArtifact, QuantCalibration};

/// Reusable buffers for a fused backbone forward pass.
#[derive(Debug, Default, Clone)]
pub struct FusedBackboneScratch {
    /// Layer-level buffers (im2row rows, INT8 GEMM state).
    pub fused: FusedScratch,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    d: Vec<f32>,
}

/// One fused backbone stage (see `Stage` in `model.rs` for the math).
#[derive(Debug, Clone)]
pub struct FusedStage {
    pub(crate) conv1: FusedConv2d,
    pub(crate) conv2: FusedConv2d,
    pub(crate) shortcut: Option<FusedConv2d>,
    pub(crate) identities: Vec<(FusedConv2d, FusedConv2d)>,
}

impl FusedStage {
    /// Runs the stage on one NHWC image, returning the output spatial size.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &self,
        x: &[f32],
        h: usize,
        w: usize,
        out: &mut Vec<f32>,
        threads: usize,
        s: &mut FusedBackboneScratch,
        mut calib: Option<&mut QuantCalibration>,
    ) -> (usize, usize) {
        let mut t = std::mem::take(&mut s.a);
        let (oh, ow) = self.conv1.forward(
            x,
            1,
            h,
            w,
            true,
            &mut t,
            threads,
            &mut s.fused,
            calib.as_deref_mut(),
        );
        self.conv2.forward(
            &t,
            1,
            oh,
            ow,
            false,
            out,
            threads,
            &mut s.fused,
            calib.as_deref_mut(),
        );
        if let Some(sc) = &self.shortcut {
            let mut scb = std::mem::take(&mut s.b);
            sc.forward(
                x,
                1,
                h,
                w,
                false,
                &mut scb,
                threads,
                &mut s.fused,
                calib.as_deref_mut(),
            );
            for (o, v) in out.iter_mut().zip(&scb) {
                *o += v;
            }
            s.b = scb;
        }
        for v in out.iter_mut() {
            *v = v.max(0.0);
        }
        for (a, b) in &self.identities {
            a.forward(
                out,
                1,
                oh,
                ow,
                true,
                &mut t,
                threads,
                &mut s.fused,
                calib.as_deref_mut(),
            );
            let mut z = std::mem::take(&mut s.b);
            b.forward(
                &t,
                1,
                oh,
                ow,
                false,
                &mut z,
                threads,
                &mut s.fused,
                calib.as_deref_mut(),
            );
            for (o, zv) in out.iter_mut().zip(&z) {
                *o = (*o + zv).max(0.0);
            }
            s.b = z;
        }
        s.a = t;
        (oh, ow)
    }

    fn for_each_conv(&self, f: &mut impl FnMut(&FusedConv2d)) {
        f(&self.conv1);
        f(&self.conv2);
        if let Some(sc) = &self.shortcut {
            f(sc);
        }
        for (a, b) in &self.identities {
            f(a);
            f(b);
        }
    }

    fn for_each_conv_mut(
        &mut self,
        f: &mut impl FnMut(&mut FusedConv2d) -> Result<(), ArtifactError>,
    ) -> Result<(), ArtifactError> {
        f(&mut self.conv1)?;
        f(&mut self.conv2)?;
        if let Some(sc) = &mut self.shortcut {
            f(sc)?;
        }
        for (a, b) in &mut self.identities {
            f(a)?;
            f(b)?;
        }
        Ok(())
    }
}

/// A graph-free NHWC fused backbone (see [`crate::Backbone::fused`]).
#[derive(Debug, Clone)]
pub struct FusedBackbone {
    pub(crate) stages: Vec<FusedStage>,
    pub(crate) in_channels: usize,
    pub(crate) out_channels: usize,
}

impl FusedBackbone {
    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output ("C4") channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Output spatial size for an `h`×`w` input: each stage's strided
    /// first convolution sets its output size.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        self.stages
            .iter()
            .fold((h, w), |(h, w), st| st.conv1.output_hw(h, w))
    }

    /// Extracts one NHWC image's features and appends them to `out`
    /// (`[oh, ow, out_channels]`, see [`FusedBackbone::output_hw`]). The
    /// first stage reads `x` in place. `calib`, when set, forces the float
    /// path and records every convolution's GEMM input range.
    ///
    /// # Panics
    /// Panics if `x.len() != h · w · in_channels`.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        x: &[f32],
        h: usize,
        w: usize,
        out: &mut Vec<f32>,
        threads: usize,
        scratch: &mut FusedBackboneScratch,
        mut calib: Option<&mut QuantCalibration>,
    ) {
        assert_eq!(
            x.len(),
            h * w * self.in_channels,
            "fused backbone: bad input len"
        );
        let mut cur = std::mem::take(&mut scratch.c);
        let mut next = std::mem::take(&mut scratch.d);
        let (mut ch, mut cw) = (h, w);
        for (i, st) in self.stages.iter().enumerate() {
            let input = if i == 0 { x } else { &cur };
            (ch, cw) = st.forward(
                input,
                ch,
                cw,
                &mut next,
                threads,
                scratch,
                calib.as_deref_mut(),
            );
            std::mem::swap(&mut cur, &mut next);
        }
        out.extend_from_slice(if self.stages.is_empty() { x } else { &cur });
        scratch.c = cur;
        scratch.d = next;
    }

    /// Quantizes every convolution using calibrated input scales.
    ///
    /// # Panics
    /// Panics if any convolution has no calibration range.
    pub fn quantize(&mut self, calib: &QuantCalibration) {
        for st in &mut self.stages {
            st.for_each_conv_mut(&mut |c| {
                c.quantize(calib);
                Ok(())
            })
            .expect("infallible");
        }
    }

    /// Exports every convolution into `art`.
    pub fn export_into(&self, art: &mut ModelArtifact) {
        for st in &self.stages {
            st.for_each_conv(&mut |c| c.export_into(art));
        }
    }

    /// Restores every convolution from `art`.
    ///
    /// # Errors
    /// Typed [`ArtifactError`]s on missing tensors or shape mismatches.
    pub fn import_from(&mut self, art: &ModelArtifact) -> Result<(), ArtifactError> {
        for st in &mut self.stages {
            st.for_each_conv_mut(&mut |c| c.import_from(art))?;
        }
        Ok(())
    }
}
