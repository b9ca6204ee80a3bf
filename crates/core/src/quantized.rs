//! INT8 post-training quantization with a fused, graph-free inference
//! pipeline.
//!
//! [`QuantizedYollo`] is a serving twin of [`Yollo`] built by
//! [`Yollo::fused`]: the whole forward pass runs on flat `f32` NHWC
//! buffers with zero tape involvement — convolutions and linear layers
//! fuse dequantization, bias and ReLU into their GEMM epilogues
//! ([`yollo_nn::FusedConv2d`] / [`yollo_nn::FusedLinear`]), the Rel2Att
//! relation map packs each sample's right-hand rows into
//! [`yollo_tensor::F32Panels`] and runs the same packed f32 GEMM as the
//! float layers, and only the final box decode happens in `f64`. In float
//! mode it is the `f32` serving path; quantized, it is the INT8 one.
//!
//! The convolutions run one image at a time: each image is laid out NHWC
//! on its own and runs the backbone, appending its feature rows, and after
//! the Rel2Att stack the head's four convolutions run per image into that
//! image's slice of the anchor outputs. So their scratch (the patch rows
//! above all) is sized by one image at any batch size. The projection, the
//! Rel2Att FFNs and the relation map run over the whole batch's rows.
//! Every GEMM output row is one in-order chain and every convolution reads
//! one image, so each sample answers bit for bit as it does alone.
//!
//! The lifecycle is calibrate → quantize → (export / serve):
//!
//! ```no_run
//! # use yollo_core::{Yollo, YolloConfig};
//! # use yollo_nn::QuantCalibration;
//! # let model = Yollo::new(YolloConfig::default(), 0);
//! # let (images, queries) = (yollo_tensor::Tensor::zeros(&[1, 5, 48, 72]), vec![vec![0; 16]]);
//! let mut q = model.fused();               // float mode: what serves f32
//! let mut calib = QuantCalibration::new();
//! q.calibrate(&images, &queries, &mut calib); // observe activation ranges
//! q.quantize(&calib);                      // switch GEMMs to INT8
//! q.export("model.yq8").unwrap();          // versioned artifact
//! let served = yollo_core::QuantizedYollo::read("model.yq8").unwrap();
//! let preds = served.predict_batch(images, &queries);
//! # let _ = preds;
//! ```
//!
//! What is quantized (symmetric INT8, per-output-channel weight scales,
//! per-tensor calibrated activation scales): every backbone convolution,
//! the encoder projection, all Rel2Att FFNs, and the two 3×3 head
//! convolutions. What stays `f32`: the embedding sums, the relation-map
//! matmul, softmax/RMS-norm, and the 1×1 `cls`/`reg` convolutions whose
//! outputs feed the box decode directly. See DESIGN.md § Quantization
//! scheme.

use crate::{AttentionAblation, GroundingPrediction, Yollo, YolloConfig};
use yollo_backbone::{FusedBackbone, FusedBackboneScratch};
use yollo_detect::{AnchorGrid, BBox};
use yollo_nn::{
    ArtifactError, FusedConv2d, FusedFfn, FusedLinear, FusedScratch, ModelArtifact,
    QuantCalibration, TensorData, TensorRecord,
};
use yollo_tensor::{f32_matmul_packed, parallel, F32Panels, Tensor};
use yollo_text::Vocab;

/// Fused encoder pieces (built by `FeatureEncoder::fused`).
#[derive(Debug, Clone)]
pub(crate) struct FusedEncoder {
    pub(crate) backbone: FusedBackbone,
    pub(crate) proj: FusedLinear,
    /// `[vocab, d_rel]` word-embedding table.
    pub(crate) word_table: Vec<f32>,
    /// `[max_query_len, d_rel]` position-embedding table.
    pub(crate) pos_table: Vec<f32>,
}

/// Fused Rel2Att layer pieces (built by `Rel2AttLayer::fused`).
#[derive(Debug, Clone)]
pub(crate) struct FusedRel2Att {
    pub(crate) name: String,
    pub(crate) ffn_v1: FusedFfn,
    pub(crate) ffn_v2: FusedFfn,
    pub(crate) ffn_t1: FusedFfn,
    pub(crate) ffn_t2: FusedFfn,
    pub(crate) gain: f32,
    pub(crate) compute_t: bool,
}

/// Fused detection-head pieces (built by `DetectionHead::fused`).
#[derive(Debug, Clone)]
pub(crate) struct FusedHead {
    pub(crate) conv1: FusedConv2d,
    pub(crate) conv2: FusedConv2d,
    pub(crate) cls: FusedConv2d,
    pub(crate) reg: FusedConv2d,
    pub(crate) k: usize,
}

/// Reusable buffers for [`QuantizedYollo::predict_batch_with`]; keeps the
/// steady-state pipeline allocation-free.
#[derive(Default)]
pub struct QuantizedScratch {
    bb: FusedBackboneScratch,
    fused: FusedScratch,
    /// One image's NHWC pixels.
    nhwc: Vec<f32>,
    /// `[B·m, C4]` backbone features, appended image by image.
    feat: Vec<f32>,
    v: Vec<f32>,
    vtmp: Vec<f32>,
    t: Vec<f32>,
    ttmp: Vec<f32>,
    v1: Vec<f32>,
    v2: Vec<f32>,
    t1: Vec<f32>,
    t2: Vec<f32>,
    /// Per-sample `1 / (real query tokens)`.
    inv_real: Vec<f32>,
    /// One sample's `X₂ = [V₂; T₂]` rows, packed for the relation map.
    x2: F32Panels,
    rel: Vec<f32>,
    colv: Vec<f32>,
    colt: Vec<f32>,
    gate: Vec<f32>,
    att: Vec<f32>,
    /// `[B, m]` last-layer attention logits.
    att_last: Vec<f32>,
    /// One image's head activations; `h1` also stages its `cls` and `reg`
    /// outputs once `conv2` has read it.
    h1: Vec<f32>,
    h2: Vec<f32>,
    /// `[B, A]` anchor logits.
    cls: Vec<f32>,
    /// `[B, A, 4]` anchor offsets.
    reg: Vec<f32>,
}

/// The graph-free fused/quantized serving model (see module docs).
///
/// Unlike [`Yollo`] (whose parameters are shared `Rc` cells), this is
/// plain owned data: `Clone + Send + Sync`, so serving replicas can clone
/// one calibrated model per worker.
#[derive(Debug, Clone)]
pub struct QuantizedYollo {
    cfg: YolloConfig,
    backbone: FusedBackbone,
    proj: FusedLinear,
    word_table: Vec<f32>,
    pos_table: Vec<f32>,
    layers: Vec<FusedRel2Att>,
    head: FusedHead,
    anchors: AnchorGrid,
    vocab: Vocab,
}

impl QuantizedYollo {
    pub(crate) fn from_parts(
        cfg: YolloConfig,
        enc: FusedEncoder,
        layers: Vec<FusedRel2Att>,
        head: FusedHead,
        anchors: AnchorGrid,
        vocab: Vocab,
    ) -> QuantizedYollo {
        QuantizedYollo {
            cfg,
            backbone: enc.backbone,
            proj: enc.proj,
            word_table: enc.word_table,
            pos_table: enc.pos_table,
            layers,
            head,
            anchors,
            vocab,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &YolloConfig {
        &self.cfg
    }

    /// The vocabulary used for sentence-level inference.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Whether the INT8 kernels are active (false = float fused mode).
    pub fn is_quantized(&self) -> bool {
        self.proj.is_quantized()
    }

    /// Runs one float forward pass, recording every quantizable layer's
    /// GEMM-input range into `calib`. Call over a calibration split, then
    /// [`QuantizedYollo::quantize`].
    pub fn calibrate(&self, images: &Tensor, queries: &[Vec<usize>], calib: &mut QuantCalibration) {
        let mut s = QuantizedScratch::default();
        self.forward_raw(images, queries, &mut s, Some(calib));
    }

    /// Switches every quantizable layer to the INT8 kernel using the
    /// calibrated activation scales. The 1×1 `cls`/`reg` head convolutions
    /// stay `f32` (their outputs are decoded directly into boxes).
    ///
    /// # Panics
    /// Panics if `calib` is missing a range for any quantized layer.
    pub fn quantize(&mut self, calib: &QuantCalibration) {
        self.backbone.quantize(calib);
        self.proj.quantize(calib);
        for l in &mut self.layers {
            l.ffn_v1.quantize(calib);
            l.ffn_v2.quantize(calib);
            l.ffn_t1.quantize(calib);
            l.ffn_t2.quantize(calib);
        }
        self.head.conv1.quantize(calib);
        self.head.conv2.quantize(calib);
    }

    /// Grounds a batch (`images` is `[B, C, H, W]`), allocating fresh
    /// scratch buffers; see [`QuantizedYollo::predict_batch_with`] for the
    /// allocation-free form.
    pub fn predict_batch(
        &self,
        images: Tensor,
        queries: &[Vec<usize>],
    ) -> Vec<GroundingPrediction> {
        let mut s = QuantizedScratch::default();
        self.predict_batch_with(&images, queries, &mut s)
    }

    /// Grounds a batch reusing `scratch` across calls.
    pub fn predict_batch_with(
        &self,
        images: &Tensor,
        queries: &[Vec<usize>],
        scratch: &mut QuantizedScratch,
    ) -> Vec<GroundingPrediction> {
        let _span =
            yollo_obs::span!("infer.predict_quantized").with_arg("samples", queries.len() as u64);
        let _lat = yollo_obs::time_hist!("infer.q8.batch_ns");
        yollo_obs::counter!("infer.q8.batches").incr();
        yollo_obs::counter!("infer.q8.samples").add(queries.len() as u64);
        let m = self.forward_raw(images, queries, scratch, None);
        self.decode(scratch, m, queries.len())
    }

    /// The full NHWC pipeline, leaving the anchor logits, offsets and
    /// last-layer attention in `s.cls`, `s.reg` and `s.att_last`; returns
    /// the feature-map cell count `m`. `calib` forces every fused layer
    /// onto its float path and records activation ranges.
    fn forward_raw(
        &self,
        images: &Tensor,
        queries: &[Vec<usize>],
        s: &mut QuantizedScratch,
        mut calib: Option<&mut QuantCalibration>,
    ) -> usize {
        let cfg = &self.cfg;
        let dims = images.dims();
        assert_eq!(dims.len(), 4, "images must be [B,C,H,W]");
        let (bsz, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(bsz, queries.len(), "batch size mismatch");
        assert_eq!(c, cfg.in_channels, "channel mismatch");
        let threads = parallel::num_threads();
        let d = cfg.d_rel;
        let n = cfg.max_query_len;

        // --- per image: NCHW f64 → NHWC f32, backbone → its feature rows.
        // One image at a time, so the convolutions' scratch is sized by one
        // image whatever the batch; the geometry comes from the layers, so
        // an empty batch still decodes ---
        let (fh, fw) = self.backbone.output_hw(h, w);
        let m = fh * fw;
        let src = images.as_slice();
        s.nhwc.clear();
        s.nhwc.resize(h * w * c, 0.0);
        s.feat.clear();
        for bi in 0..bsz {
            // every pixel of `nhwc` is overwritten
            for ci in 0..c {
                let plane = &src[(bi * c + ci) * h * w..(bi * c + ci + 1) * h * w];
                for (p, &v) in plane.iter().enumerate() {
                    s.nhwc[p * c + ci] = v as f32;
                }
            }
            self.backbone.forward(
                &s.nhwc,
                h,
                w,
                &mut s.feat,
                threads,
                &mut s.bb,
                calib.as_deref_mut(),
            );
        }

        // --- projection → V = [B·m, d] ---
        self.proj.forward(
            &s.feat,
            bsz * m,
            true,
            &mut s.v,
            threads,
            &mut s.fused,
            calib.as_deref_mut(),
        );

        // --- queries → T = [B·n, d] (word + position, PAD rows zero) ---
        s.t.clear();
        s.t.resize(bsz * n * d, 0.0);
        s.inv_real.clear();
        for (bi, q) in queries.iter().enumerate() {
            assert_eq!(q.len(), n, "query must be padded to {n}");
            let mut real = 0usize;
            for (i, &id) in q.iter().enumerate() {
                if id == Vocab::pad_id() {
                    continue;
                }
                real += 1;
                let dst = &mut s.t[(bi * n + i) * d..(bi * n + i + 1) * d];
                let wrow = &self.word_table[id * d..(id + 1) * d];
                let prow = &self.pos_table[i * d..(i + 1) * d];
                for (o, (&wv, &pv)) in dst.iter_mut().zip(wrow.iter().zip(prow)) {
                    *o = wv + pv;
                }
            }
            s.inv_real.push(1.0 / (real.max(1) as f32));
        }

        // --- Rel2Att stack ---
        let k = m + n;
        let inv_sqrt_d = (1.0 / (d as f64).sqrt()) as f32;
        let n_layers = self.layers.len();
        for (li, layer) in self.layers.iter().enumerate() {
            let last = li + 1 == n_layers;
            layer.ffn_v1.forward(
                &s.v,
                bsz * m,
                &mut s.v1,
                threads,
                &mut s.fused,
                calib.as_deref_mut(),
            );
            layer.ffn_v2.forward(
                &s.v,
                bsz * m,
                &mut s.v2,
                threads,
                &mut s.fused,
                calib.as_deref_mut(),
            );
            layer.ffn_t1.forward(
                &s.t,
                bsz * n,
                &mut s.t1,
                threads,
                &mut s.fused,
                calib.as_deref_mut(),
            );
            layer.ffn_t2.forward(
                &s.t,
                bsz * n,
                &mut s.t2,
                threads,
                &mut s.fused,
                calib.as_deref_mut(),
            );
            // PAD rows must not enter the relation map
            for (bi, q) in queries.iter().enumerate() {
                for (i, &id) in q.iter().enumerate() {
                    if id == Vocab::pad_id() {
                        s.t1[(bi * n + i) * d..(bi * n + i + 1) * d].fill(0.0);
                        s.t2[(bi * n + i) * d..(bi * n + i + 1) * d].fill(0.0);
                    }
                }
            }
            // per-sample relation map R = X₁X₂ᵀ/√d and its quadrant means
            s.att.clear();
            s.att.resize(bsz * k, 0.0);
            for (bi, &ir) in s.inv_real.iter().enumerate() {
                let (vs, ts) = (bi * m * d..(bi + 1) * m * d, bi * n * d..(bi + 1) * n * d);
                s.x2.repack(&[&s.v2[vs.clone()], &s.t2[ts.clone()]], d);
                // X₁ = [V₁; T₁] is never assembled: its two row blocks fill
                // the top m and bottom n rows of R
                s.rel.resize(k * k, 0.0);
                let (rv, rt) = s.rel.split_at_mut(m * k);
                f32_matmul_packed(&s.v1[vs], m, &s.x2, None, false, rv, threads);
                f32_matmul_packed(&s.t1[ts], n, &s.x2, None, false, rt, threads);
                for v in s.rel.iter_mut() {
                    *v *= inv_sqrt_d;
                }
                match cfg.ablation {
                    AttentionAblation::Full => {}
                    AttentionAblation::NoSelfAttention => {
                        for i in 0..k {
                            for j in 0..k {
                                if (i < m) == (j < m) {
                                    s.rel[i * k + j] = 0.0;
                                }
                            }
                        }
                    }
                    AttentionAblation::NoCoAttention => {
                        for i in 0..k {
                            for j in 0..k {
                                if (i < m) != (j < m) {
                                    s.rel[i * k + j] = 0.0;
                                }
                            }
                        }
                    }
                }
                // att = quad_means(R) + quad_means(Rᵀ): per-quadrant means
                // so R_v· and R_t· get equal voice; the T mean is PAD-aware
                let inv_m = 1.0 / m as f32;
                s.colv.clear();
                s.colv.resize(k, 0.0);
                s.colt.clear();
                s.colt.resize(k, 0.0);
                {
                    let att_row = &mut s.att[bi * k..(bi + 1) * k];
                    for (i, ar) in att_row.iter_mut().enumerate() {
                        let row = &s.rel[i * k..(i + 1) * k];
                        let vm: f32 = row[..m].iter().sum();
                        let tm: f32 = row[m..].iter().sum();
                        *ar = vm * inv_m + tm * ir;
                        let (dst, weight) = if i < m {
                            (&mut s.colv, inv_m)
                        } else {
                            (&mut s.colt, ir)
                        };
                        for (cs, &rv) in dst.iter_mut().zip(row) {
                            *cs += rv * weight;
                        }
                    }
                    for (av, (&cv, &ct)) in att_row.iter_mut().zip(s.colv.iter().zip(&s.colt)) {
                        *av = (*av + cv + ct) * layer.gain;
                    }
                }
            }
            if last {
                s.att_last.clear();
                for bi in 0..bsz {
                    s.att_last.extend_from_slice(&s.att[bi * k..bi * k + m]);
                }
            }
            // Ṽ = rms_norm(V·gate + V), gate = m·softmax(att_v)
            s.vtmp.clear();
            s.vtmp.resize(bsz * m * d, 0.0);
            for bi in 0..bsz {
                let att_v = &s.att[bi * k..bi * k + m];
                gated_rms_norm(
                    &s.v[bi * m * d..(bi + 1) * m * d],
                    att_v,
                    m,
                    d,
                    &mut s.vtmp[bi * m * d..(bi + 1) * m * d],
                    &mut s.gate,
                );
            }
            std::mem::swap(&mut s.v, &mut s.vtmp);
            // T̃ similarly — except the last module (§3.2)
            if layer.compute_t {
                s.ttmp.clear();
                s.ttmp.resize(bsz * n * d, 0.0);
                for bi in 0..bsz {
                    let att_t = &s.att[bi * k + m..(bi + 1) * k];
                    gated_rms_norm(
                        &s.t[bi * n * d..(bi + 1) * n * d],
                        att_t,
                        n,
                        d,
                        &mut s.ttmp[bi * n * d..(bi + 1) * n * d],
                        &mut s.gate,
                    );
                }
                std::mem::swap(&mut s.t, &mut s.ttmp);
                for (bi, q) in queries.iter().enumerate() {
                    for (i, &id) in q.iter().enumerate() {
                        if id == Vocab::pad_id() {
                            s.t[(bi * n + i) * d..(bi * n + i + 1) * d].fill(0.0);
                        }
                    }
                }
            }
        }

        // --- detection head, one image at a time: each image's rows of V
        // are its NHWC feature map [fh, fw, d]; cls and reg append that
        // image's anchors, staged in h1 once conv2 has read it ---
        s.cls.clear();
        s.reg.clear();
        for bi in 0..bsz {
            self.head.conv1.forward(
                &s.v[bi * m * d..(bi + 1) * m * d],
                1,
                fh,
                fw,
                true,
                &mut s.h1,
                threads,
                &mut s.fused,
                calib.as_deref_mut(),
            );
            self.head.conv2.forward(
                &s.h1,
                1,
                fh,
                fw,
                true,
                &mut s.h2,
                threads,
                &mut s.fused,
                calib.as_deref_mut(),
            );
            for (conv, dst) in [(&self.head.cls, &mut s.cls), (&self.head.reg, &mut s.reg)] {
                conv.forward(
                    &s.h2,
                    1,
                    fh,
                    fw,
                    false,
                    &mut s.h1,
                    threads,
                    &mut s.fused,
                    calib.as_deref_mut(),
                );
                dst.extend_from_slice(&s.h1);
            }
        }
        m
    }

    /// Top-1 decode from the scratch that [`QuantizedYollo::forward_raw`]
    /// filled, mirroring `Yollo::predictions_from_output` (box arithmetic
    /// in `f64`). NHWC cls/reg outputs are already flat in anchor-grid
    /// order: `cls[cell·K + k]`, `reg[(cell·K + k)·4 + coord]`.
    fn decode(&self, s: &QuantizedScratch, m: usize, bsz: usize) -> Vec<GroundingPrediction> {
        let a = m * self.head.k;
        assert_eq!(a, self.anchors.len(), "anchor count mismatch");
        let (w, h) = (self.cfg.image_width as f64, self.cfg.image_height as f64);
        (0..bsz)
            .map(|bi| {
                let row = &s.cls[bi * a..(bi + 1) * a];
                // first-maximum argmax, matching Tensor::argmax's tie rule
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                let logit = row[best] as f64;
                let off = &s.reg[(bi * a + best) * 4..(bi * a + best) * 4 + 4];
                let t = [off[0] as f64, off[1] as f64, off[2] as f64, off[3] as f64];
                let anchor = self.anchors.boxes()[best];
                let bbox = BBox::decode(&anchor, t, self.cfg.offset_encoding).clip_to(w, h);
                let att_row = &s.att_last[bi * m..(bi + 1) * m];
                GroundingPrediction {
                    bbox,
                    score: 1.0 / (1.0 + (-logit).exp()),
                    attention: softmax_f64(att_row),
                }
            })
            .collect()
    }

    /// Serialises the model (config + vocab + every tensor, INT8 records
    /// for quantized layers) into a versioned artifact (format tag
    /// `yollo-quantized`).
    pub fn to_artifact(&self) -> ModelArtifact {
        let mut art = ModelArtifact::new(crate::persist::model_meta(
            crate::persist::QUANTIZED_FORMAT,
            &self.cfg,
            &self.vocab,
        ));
        self.backbone.export_into(&mut art);
        self.proj.export_into(&mut art);
        let d = self.cfg.d_rel;
        art.push(TensorRecord::float32(
            "encoder.word.table",
            vec![self.word_table.len() / d, d],
            self.word_table.clone(),
        ));
        art.push(TensorRecord::float32(
            "encoder.pos.table",
            vec![self.pos_table.len() / d, d],
            self.pos_table.clone(),
        ));
        for l in &self.layers {
            l.ffn_v1.export_into(&mut art);
            l.ffn_v2.export_into(&mut art);
            l.ffn_t1.export_into(&mut art);
            l.ffn_t2.export_into(&mut art);
            art.push(TensorRecord::float32(
                format!("{}.gain", l.name),
                vec![1],
                vec![l.gain],
            ));
        }
        self.head.conv1.export_into(&mut art);
        self.head.conv2.export_into(&mut art);
        self.head.cls.export_into(&mut art);
        self.head.reg.export_into(&mut art);
        art
    }

    /// Writes the artifact durably (atomic tmp + fsync + rename).
    ///
    /// # Errors
    /// Any I/O error, typed as [`ArtifactError::Io`].
    pub fn export(&self, path: impl AsRef<std::path::Path>) -> Result<(), ArtifactError> {
        self.to_artifact().write(path)
    }

    /// Rebuilds a model from an artifact: the architecture comes from the
    /// embedded config, the weights (and quantization state) from the
    /// tensor records.
    ///
    /// # Errors
    /// Typed [`ArtifactError`]s — corrupt metadata, missing tensors,
    /// shape mismatches. Never panics on malformed input.
    pub fn import_artifact(art: &ModelArtifact) -> Result<QuantizedYollo, ArtifactError> {
        let (config, vocab) =
            crate::persist::read_model_meta(art, crate::persist::QUANTIZED_FORMAT)?;
        if vocab.len() != config.vocab_size {
            return Err(ArtifactError::Corrupt(format!(
                "vocab size {} disagrees with config {}",
                vocab.len(),
                config.vocab_size
            )));
        }
        // build an architecture skeleton, then overwrite every weight
        let mut skeleton = Yollo::new(config, 0);
        skeleton.set_vocab(vocab);
        let mut model = skeleton.fused();
        model.import_from(art)?;
        Ok(model)
    }

    /// Reads and validates an artifact file, then rebuilds the model.
    ///
    /// # Errors
    /// Typed [`ArtifactError`]s; truncated or bit-flipped files fail the
    /// CRC/bounds checks, never panic.
    pub fn read(path: impl AsRef<std::path::Path>) -> Result<QuantizedYollo, ArtifactError> {
        Self::import_artifact(&ModelArtifact::read(path)?)
    }

    fn import_from(&mut self, art: &ModelArtifact) -> Result<(), ArtifactError> {
        self.backbone.import_from(art)?;
        self.proj.import_from(art)?;
        copy_f32(art, "encoder.word.table", &mut self.word_table)?;
        copy_f32(art, "encoder.pos.table", &mut self.pos_table)?;
        for l in &mut self.layers {
            l.ffn_v1.import_from(art)?;
            l.ffn_v2.import_from(art)?;
            l.ffn_t1.import_from(art)?;
            l.ffn_t2.import_from(art)?;
            let rec = art.require(&format!("{}.gain", l.name))?;
            match &rec.data {
                TensorData::F32(v) if v.len() == 1 => l.gain = v[0],
                _ => {
                    return Err(ArtifactError::ShapeMismatch(format!(
                        "{}.gain: expected one f32",
                        l.name
                    )))
                }
            }
        }
        self.head.conv1.import_from(art)?;
        self.head.conv2.import_from(art)?;
        self.head.cls.import_from(art)?;
        self.head.reg.import_from(art)?;
        Ok(())
    }
}

/// `out = rms_norm(x·gate + x)` for one `[rows, d]` sample, where
/// `gate = rows·softmax(att)` (held in the caller's `gate` buffer) and the
/// RMS is per-sample over every element (matching `rel2att::rms_norm`).
fn gated_rms_norm(
    x: &[f32],
    att: &[f32],
    rows: usize,
    d: usize,
    out: &mut [f32],
    gate: &mut Vec<f32>,
) {
    let mx = att.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut denom = 0.0f32;
    gate.clear();
    gate.resize(rows, 0.0);
    for (g, &l) in gate.iter_mut().zip(att) {
        *g = (l - mx).exp();
        denom += *g;
    }
    let scale = rows as f32 / denom;
    let mut sumsq = 0.0f32;
    for (r, &gr) in gate.iter().enumerate() {
        let g = gr * scale + 1.0; // x·gate + x = x·(gate + 1)
        for i in r * d..(r + 1) * d {
            let y = x[i] * g;
            out[i] = y;
            sumsq += y * y;
        }
    }
    let ms = (sumsq / (rows * d) as f32 + 1e-8).sqrt();
    let inv = 1.0 / ms;
    for v in out.iter_mut() {
        *v *= inv;
    }
}

/// Max-subtracted softmax in `f64` (the decoded attention map).
fn softmax_f64(logits: &[f32]) -> Vec<f64> {
    let mx = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)) as f64;
    let mut out: Vec<f64> = logits.iter().map(|&l| (l as f64 - mx).exp()).collect();
    let sum: f64 = out.iter().sum();
    for v in out.iter_mut() {
        *v /= sum;
    }
    out
}

/// Copies a float32 record into `dst`, length-checked.
fn copy_f32(art: &ModelArtifact, name: &str, dst: &mut [f32]) -> Result<(), ArtifactError> {
    let rec = art.require(name)?;
    match &rec.data {
        TensorData::F32(v) if v.len() == dst.len() => {
            dst.copy_from_slice(v);
            Ok(())
        }
        TensorData::F32(v) => Err(ArtifactError::ShapeMismatch(format!(
            "{name}: expected {} elements, found {}",
            dst.len(),
            v.len()
        ))),
        other => Err(ArtifactError::ShapeMismatch(format!(
            "{name}: expected f32 data, found {:?}",
            other.dtype()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TrainConfig, Trainer};
    use yollo_synthref::{Dataset, DatasetConfig, DatasetKind, Split};

    /// 8 val images, so `val_batch` runs at b8. Each split draws from
    /// its own stream: the train split (and so the vocabulary) and the
    /// first four val samples are those of the 4-image preset.
    fn tiny() -> (Yollo, Dataset) {
        let ds = Dataset::generate(DatasetConfig {
            val_images: 8,
            ..DatasetConfig::tiny(DatasetKind::SynthRef, 7)
        });
        let cfg = YolloConfig {
            d_rel: 12,
            ffn_hidden: 16,
            n_rel2att: 2,
            ..YolloConfig::for_dataset(&ds)
        };
        let mut m = Yollo::new(cfg, 11);
        m.set_vocab(ds.build_vocab());
        (m, ds)
    }

    /// A briefly-trained tiny model: an untrained one emits near-uniform
    /// attention and zero-area boxes, which makes drift metrics vacuous.
    fn trained() -> (Yollo, Dataset) {
        let (mut m, ds) = tiny();
        let cfg = TrainConfig {
            iterations: 60,
            eval_every: 0,
            checkpoint_every: 0,
            ..TrainConfig::quick()
        };
        Trainer::new(cfg).train(&mut m, &ds);
        (m, ds)
    }

    fn val_batch(model: &Yollo, ds: &Dataset) -> (Tensor, Vec<Vec<usize>>, Vec<BBox>) {
        let samples: Vec<_> = ds.samples(Split::Val).iter().take(8).collect();
        assert_eq!(samples.len(), 8, "val_batch holds 8 samples");
        model.encode_batch(ds, &samples)
    }

    #[test]
    fn fused_float_pipeline_tracks_f64_reference() {
        let (small, ds) = tiny();
        // the first four val samples, the batch this check has always run
        float_pipeline_tracks_f64(&small, &ds, 4);
        // the shape the serving benchmark runs: `for_dataset` keeps the
        // default layer dims (d_rel 48, ffn 64, 3 layers)
        let served = Yollo::for_dataset(&ds, 11);
        for batch in [1, 8] {
            float_pipeline_tracks_f64(&served, &ds, batch);
        }
    }

    fn float_pipeline_tracks_f64(model: &Yollo, ds: &Dataset, batch: usize) {
        let fused = model.fused();
        assert!(!fused.is_quantized());
        let samples: Vec<_> = ds.samples(Split::Val).iter().take(batch).collect();
        assert_eq!(samples.len(), batch);
        let (images, queries, _) = model.encode_batch(ds, &samples);
        let want = model.predict_batch(images.clone(), &queries);
        let got = fused.predict_batch(images, &queries);
        assert_eq!(got.len(), want.len());
        let at = format!("d_rel {} b{batch}", model.config().d_rel);
        // IoU is the headline metric, but the untrained model can emit
        // zero-area boxes after clipping (IoU degenerates to 0 even for
        // identical boxes) — so also bound the raw coordinate drift.
        for (g, w) in got.iter().zip(&want) {
            if w.bbox.w * w.bbox.h > 0.0 {
                assert!(
                    g.bbox.iou(&w.bbox) > 0.99,
                    "{at}: fused box {:?} drifted from f64 {:?}",
                    g.bbox,
                    w.bbox
                );
            }
            for (a, b) in [
                (g.bbox.x, w.bbox.x),
                (g.bbox.y, w.bbox.y),
                (g.bbox.w, w.bbox.w),
                (g.bbox.h, w.bbox.h),
            ] {
                assert!(
                    (a - b).abs() < 0.05,
                    "{at}: coordinate drift: {g:?} vs {w:?}"
                );
            }
            assert!((g.score - w.score).abs() < 1e-3, "{at}: score drift");
            assert_eq!(
                g.attention_peak(),
                w.attention_peak(),
                "{at}: attention peak"
            );
        }
    }

    #[test]
    fn quantized_pipeline_stays_within_drift_budget() {
        let (model, ds) = trained();
        let mut q = model.fused();
        let (images, queries, targets) = val_batch(&model, &ds);
        let mut calib = QuantCalibration::new();
        q.calibrate(&images, &queries, &mut calib);
        q.quantize(&calib);
        assert!(q.is_quantized());
        let f64_preds = model.predict_batch(images.clone(), &queries);
        let q_preds = q.predict_batch(images, &queries);
        // e2e accuracy: IoU@0.5 against ground truth may drift ≤1 sample,
        // per-box agreement with the f64 reference stays high, and the
        // attention peak (a 54-way argmax) agrees on most samples
        let acc = |preds: &[GroundingPrediction]| {
            preds
                .iter()
                .zip(&targets)
                .filter(|(p, t)| p.bbox.iou(t) >= 0.5)
                .count()
        };
        let drift = (acc(&f64_preds) as i64 - acc(&q_preds) as i64).unsigned_abs() as usize;
        assert!(drift <= 1, "IoU@0.5 count drifted by {drift} of 8");
        // mean IoU against ground truth must not degrade materially (per-box
        // identity is too strict: near-tie anchor scores legitimately flip
        // the argmax under INT8 rounding without hurting accuracy)
        let mean_iou = |preds: &[GroundingPrediction]| {
            preds
                .iter()
                .zip(&targets)
                .map(|(p, t)| p.bbox.iou(t))
                .sum::<f64>()
                / preds.len() as f64
        };
        let (iou_f64, iou_q) = (mean_iou(&f64_preds), mean_iou(&q_preds));
        assert!(
            iou_f64 - iou_q < 0.1,
            "mean IoU vs targets degraded: f64 {iou_f64:.3} → int8 {iou_q:.3}"
        );
        // attention maps must stay close as distributions, and the f64 peak
        // cell must remain at (or essentially tied with) the INT8 peak —
        // exact 54-way argmax agreement is measured on fully-trained models
        // by exp_serve; on this briefly-trained one it is noise
        for (a, b) in f64_preds.iter().zip(&q_preds) {
            let l1: f64 = a
                .attention
                .iter()
                .zip(&b.attention)
                .map(|(x, y)| (x - y).abs())
                .sum();
            // near-tie logits make softmax mass noise-sensitive; this bound
            // (max possible L1 is 2.0) catches catastrophic divergence only
            assert!(l1 <= 0.8, "attention distribution drifted (L1 {l1:.3})");
            let at_f64_peak = b.attention[a.attention_peak()];
            let peak = b.attention[b.attention_peak()];
            assert!(
                at_f64_peak >= 0.5 * peak,
                "f64 attention peak lost under INT8: {at_f64_peak:.4} vs max {peak:.4}"
            );
        }
    }

    #[test]
    fn artifact_roundtrip_preserves_quantized_predictions_exactly() {
        let (model, ds) = tiny();
        let mut q = model.fused();
        let (images, queries, _) = val_batch(&model, &ds);
        let mut calib = QuantCalibration::new();
        q.calibrate(&images, &queries, &mut calib);
        q.quantize(&calib);
        let art = q.to_artifact();
        let loaded = QuantizedYollo::import_artifact(
            &ModelArtifact::from_bytes(&art.to_bytes()).expect("roundtrip"),
        )
        .expect("import");
        assert!(loaded.is_quantized());
        assert_eq!(loaded.vocab().len(), q.vocab().len());
        let a = q.predict_batch(images.clone(), &queries);
        let b = loaded.predict_batch(images, &queries);
        // INT8 codes and scales round-trip exactly ⇒ identical predictions
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bbox, y.bbox);
            assert_eq!(x.score, y.score);
            assert_eq!(x.attention, y.attention);
        }
    }

    /// The float and int8 flat twins of `model`, int8 calibrated on the b8
    /// val batch.
    fn flat_pair(model: &Yollo, ds: &Dataset) -> [(&'static str, QuantizedYollo); 2] {
        let (images, queries, _) = val_batch(model, ds);
        let mut int8 = model.fused();
        let mut calib = QuantCalibration::new();
        int8.calibrate(&images, &queries, &mut calib);
        int8.quantize(&calib);
        [("float", model.fused()), ("int8", int8)]
    }

    /// Every bit of a prediction: box, score and attention.
    fn pred_bits(p: &GroundingPrediction) -> Vec<u64> {
        let b = p.bbox;
        [b.x, b.y, b.w, b.h, p.score]
            .into_iter()
            .chain(p.attention.iter().copied())
            .map(f64::to_bits)
            .collect()
    }

    /// One scratch reused across batches that shrink and grow again (the
    /// sizes a serving worker sees) answers bit for bit as a fresh one, in
    /// float and in int8 mode.
    #[test]
    fn scratch_reuse_is_equivalent() {
        let (model, ds) = tiny();
        let val = ds.samples(Split::Val);
        for (mode, flat) in flat_pair(&model, &ds) {
            let mut s = QuantizedScratch::default();
            for (batch, skip) in [(8, 0), (1, 5), (3, 2), (8, 0)] {
                let samples: Vec<_> = val.iter().skip(skip).take(batch).collect();
                assert_eq!(samples.len(), batch);
                let (images, queries, _) = model.encode_batch(&ds, &samples);
                let fresh = flat.predict_batch(images.clone(), &queries);
                let reused = flat.predict_batch_with(&images, &queries, &mut s);
                assert_eq!(reused.len(), batch);
                for (i, (a, b)) in fresh.iter().zip(&reused).enumerate() {
                    assert_eq!(pred_bits(a), pred_bits(b), "{mode} b{batch} sample {i}");
                }
            }
        }
    }

    /// Each sample of a b8 batch answers bit for bit as it does alone at
    /// b1, in float and in int8 mode: every GEMM output row is one in-order
    /// chain over its inputs, each convolution reads one image, and the
    /// relation map and norms are per sample. A server batches whatever
    /// arrives together, so no answer may depend on its batch mates. An
    /// empty batch answers nothing.
    #[test]
    fn batched_samples_answer_as_they_do_alone() {
        let (model, ds) = tiny();
        let (images, queries, _) = val_batch(&model, &ds);
        let val: Vec<_> = ds.samples(Split::Val).iter().take(8).collect();
        let cfg = model.config();
        let (c, h, w) = (cfg.in_channels, cfg.image_height, cfg.image_width);
        for (mode, flat) in flat_pair(&model, &ds) {
            let batched = flat.predict_batch(images.clone(), &queries);
            assert_eq!(batched.len(), 8);
            for (i, sample) in val.iter().enumerate() {
                let (image, query, _) = model.encode_batch(&ds, &[*sample]);
                let alone = flat.predict_batch(image, &query);
                assert_eq!(
                    pred_bits(&batched[i]),
                    pred_bits(&alone[0]),
                    "{mode} sample {i}: b8 answer differs from b1"
                );
            }
            assert!(flat
                .predict_batch(Tensor::zeros(&[0, c, h, w]), &[])
                .is_empty());
        }
    }

    /// The convolutions run one image at a time, so after a b8 batch none
    /// of the scratch buffers they read or write holds more than after a
    /// b1 batch: the NHWC input, both patch-row buffers and the head's
    /// activations. (The int8 code buffers inside `Q8Scratch` are sized by
    /// the same calls.)
    #[test]
    fn conv_scratch_does_not_grow_with_the_batch() {
        let (model, ds) = tiny();
        let (images, queries, _) = val_batch(&model, &ds);
        let first = &ds.samples(Split::Val)[0];
        let (image, query, _) = model.encode_batch(&ds, &[first]);
        let held = |s: &QuantizedScratch| {
            [
                ("nhwc", s.nhwc.capacity()),
                ("backbone rows", s.bb.fused.rows.capacity()),
                ("head rows", s.fused.rows.capacity()),
                ("h1", s.h1.capacity()),
                ("h2", s.h2.capacity()),
            ]
        };
        for (mode, flat) in flat_pair(&model, &ds) {
            let mut s = QuantizedScratch::default();
            flat.predict_batch_with(&image, &query, &mut s);
            let after_b1 = held(&s);
            flat.predict_batch_with(&images, &queries, &mut s);
            assert_eq!(held(&s), after_b1, "{mode}: a b8 batch grew the scratch");
        }
    }
}
