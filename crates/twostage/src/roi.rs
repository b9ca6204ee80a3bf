use crate::ProposalNetwork;
use std::collections::HashMap;
use yollo_detect::BBox;
use yollo_nn::Binder;
use yollo_synthref::{Dataset, Scene, Split};
use yollo_tensor::{Graph, Tensor};

/// A proposal (or ground-truth candidate) with its pooled feature vector:
/// `pool×pool` max-pooled C4 features plus 5 normalised geometry values
/// (cx, cy, w, h, area).
#[derive(Debug, Clone, PartialEq)]
pub struct ProposalFeature {
    /// The region, in image pixels.
    pub bbox: BBox,
    /// Stage-i objectness (1.0 for ground-truth candidates).
    pub objectness: f64,
    /// The flat feature vector (`channels·pool² + 5`).
    pub vector: Tensor,
}

/// Max-RoI-pools backbone features for arbitrary boxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoiExtractor {
    stride: usize,
    pool: usize,
}

impl RoiExtractor {
    /// Creates an extractor for feature maps of the given stride, pooling
    /// each RoI to `pool × pool` bins.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(stride: usize, pool: usize) -> Self {
        assert!(stride > 0 && pool > 0, "stride/pool must be positive");
        RoiExtractor { stride, pool }
    }

    /// Feature-vector length for a `channels`-channel map.
    pub fn feat_dim(&self, channels: usize) -> usize {
        channels * self.pool * self.pool + 5
    }

    /// Pools `bbox` from `feat_map` (`[1, C, fh, fw]`).
    ///
    /// # Panics
    /// Panics if the map is not rank 4 with batch 1.
    pub fn extract(
        &self,
        feat_map: &Tensor,
        bbox: BBox,
        objectness: f64,
        img_w: usize,
        img_h: usize,
    ) -> ProposalFeature {
        assert_eq!(feat_map.rank(), 4, "feature map must be [1,C,fh,fw]");
        assert_eq!(feat_map.dims()[0], 1, "batched RoI pooling not needed");
        let (c, fh, fw) = (feat_map.dims()[1], feat_map.dims()[2], feat_map.dims()[3]);
        let fb = bbox.scale(1.0 / self.stride as f64);
        // clamp the box onto the grid, ensuring ≥1 cell in each direction
        let x1 = (fb.x.floor().max(0.0) as usize).min(fw - 1);
        let y1 = (fb.y.floor().max(0.0) as usize).min(fh - 1);
        let x2 = (fb.x2().ceil() as usize).clamp(x1 + 1, fw);
        let y2 = (fb.y2().ceil() as usize).clamp(y1 + 1, fh);
        let (bw, bh) = (x2 - x1, y2 - y1);
        let mut vector = Vec::with_capacity(self.feat_dim(c));
        let fm = feat_map.as_slice();
        for ch in 0..c {
            let base = ch * fh * fw;
            for by in 0..self.pool {
                for bx in 0..self.pool {
                    // bin [by,bx] covers a sub-rectangle of the RoI
                    let ys = y1 + by * bh / self.pool;
                    let ye = (y1 + (by + 1) * bh / self.pool).max(ys + 1).min(y2);
                    let xs = x1 + bx * bw / self.pool;
                    let xe = (x1 + (bx + 1) * bw / self.pool).max(xs + 1).min(x2);
                    let mut m = f64::NEG_INFINITY;
                    for y in ys..ye {
                        for x in xs..xe {
                            m = m.max(fm[base + y * fw + x]);
                        }
                    }
                    vector.push(m);
                }
            }
        }
        let (cx, cy) = bbox.center();
        vector.push(cx / img_w as f64);
        vector.push(cy / img_h as f64);
        vector.push(bbox.w / img_w as f64);
        vector.push(bbox.h / img_h as f64);
        vector.push(bbox.area() / (img_w * img_h) as f64);
        ProposalFeature {
            bbox,
            objectness,
            vector: Tensor::from_vec(vector, &[self.feat_dim(c)]),
        }
    }

    /// Features for every ground-truth object of a scene, using the
    /// proposal network's (fixed) backbone — the training candidates of the
    /// stage-ii matchers ("they choose to use … the ground-truth candidate
    /// bounding boxes", §2).
    pub fn features_for_objects(
        &self,
        rpn: &ProposalNetwork,
        scene: &Scene,
    ) -> Vec<ProposalFeature> {
        let g = Graph::new();
        let bind = Binder::new(&g);
        let img = scene
            .render()
            .reshape(&[1, rpn.config().in_channels, scene.height, scene.width]);
        let feat = rpn.backbone().forward(&bind, g.leaf(img)).value();
        scene
            .objects
            .iter()
            .map(|o| self.extract(&feat, o.bbox, 1.0, scene.width, scene.height))
            .collect()
    }
}

/// Crops a region from a rendered image `[C, H, W]` and resamples it to
/// `out×out` pixels (nearest neighbour) — the per-region input of the
/// original speaker/listener pipelines, which ran a CNN forward pass per
/// proposal crop rather than pooling a shared feature map.
///
/// # Panics
/// Panics if `image` is not rank 3 or `out == 0`.
pub fn crop_resize(image: &Tensor, bbox: BBox, out: usize) -> Tensor {
    assert_eq!(image.rank(), 3, "image must be [C, H, W]");
    assert!(out > 0, "output size must be positive");
    let (c, h, w) = (image.dims()[0], image.dims()[1], image.dims()[2]);
    let b = bbox.clip_to(w as f64, h as f64);
    let (bw, bh) = (b.w.max(1.0), b.h.max(1.0));
    Tensor::from_fn(&[c, out, out], |flat| {
        let ch = flat / (out * out);
        let rem = flat % (out * out);
        let (oy, ox) = (rem / out, rem % out);
        let sy = (b.y + (oy as f64 + 0.5) * bh / out as f64).clamp(0.0, h as f64 - 1.0) as usize;
        let sx = (b.x + (ox as f64 + 0.5) * bw / out as f64).clamp(0.0, w as f64 - 1.0) as usize;
        image.at(&[ch, sy, sx])
    })
}

/// Pre-computed ground-truth candidate features for the training scenes
/// (stage-ii matchers train against these; recomputing the backbone pass
/// per step would dominate training time).
#[derive(Debug, Default)]
pub struct CandidateCache {
    per_scene: HashMap<usize, Vec<ProposalFeature>>,
}

impl CandidateCache {
    /// Builds the cache over every scene referenced by the training split.
    pub fn build(rpn: &ProposalNetwork, roi: RoiExtractor, ds: &Dataset) -> Self {
        let mut per_scene = HashMap::new();
        for s in ds.samples(Split::Train) {
            per_scene
                .entry(s.scene_idx)
                .or_insert_with(|| roi.features_for_objects(rpn, ds.scene_of(s)));
        }
        CandidateCache { per_scene }
    }

    /// The candidate features of a scene.
    ///
    /// # Panics
    /// Panics if the scene was not cached (not a training scene).
    pub fn candidates(&self, scene_idx: usize) -> &[ProposalFeature] {
        &self.per_scene[&scene_idx]
    }

    /// Number of cached scenes.
    pub fn len(&self) -> usize {
        self.per_scene.len()
    }

    /// True when nothing was cached.
    pub fn is_empty(&self) -> bool {
        self.per_scene.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_vector_has_expected_layout() {
        let roi = RoiExtractor::new(8, 2);
        assert_eq!(roi.feat_dim(28), 117);
        // feature map with a known hot cell
        let mut fm = Tensor::zeros(&[1, 1, 6, 9]);
        fm.set(&[0, 0, 2, 3], 7.0);
        let f = roi.extract(&fm, BBox::new(16.0, 8.0, 24.0, 24.0), 0.9, 72, 48);
        // one channel × 4 pooled bins, plus the 5-value geometry tail
        assert_eq!(f.vector.numel(), 4 + 5);
        // the hot cell (2,3) falls in the pooled region → some bin sees 7
        assert!(f.vector.as_slice()[..4].contains(&7.0));
        // geometry tail: cx=28/72, cy=20/48
        let tail = &f.vector.as_slice()[4..];
        assert!((tail[0] - 28.0 / 72.0).abs() < 1e-12);
        assert!((tail[1] - 20.0 / 48.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_and_edge_boxes_still_pool() {
        let roi = RoiExtractor::new(8, 2);
        let fm = Tensor::ones(&[1, 2, 6, 9]);
        for b in [
            BBox::new(0.0, 0.0, 1.0, 1.0),
            BBox::new(70.0, 46.0, 10.0, 10.0), // runs off the edge
            BBox::new(-5.0, -5.0, 4.0, 4.0),
        ] {
            let f = roi.extract(&fm, b, 0.5, 72, 48);
            assert!(f.vector.is_finite(), "non-finite pooling for {b:?}");
            assert!(f.vector.as_slice()[..8].iter().all(|&v| v == 1.0));
        }
    }

    #[test]
    fn distinct_regions_give_distinct_features() {
        let roi = RoiExtractor::new(8, 2);
        let fm = Tensor::from_fn(&[1, 1, 6, 9], |i| i as f64);
        let a = roi.extract(&fm, BBox::new(0.0, 0.0, 16.0, 16.0), 1.0, 72, 48);
        let b = roi.extract(&fm, BBox::new(48.0, 24.0, 16.0, 16.0), 1.0, 72, 48);
        assert_ne!(a.vector, b.vector);
    }
}

#[cfg(test)]
mod crop_tests {
    use super::*;
    use crate::{ProposalConfig, ProposalNetwork};
    use rand::SeedableRng;
    use yollo_synthref::{Scene, SceneConfig};

    #[test]
    fn crop_resize_shapes_and_content() {
        let img = Tensor::from_fn(&[3, 8, 8], |i| i as f64);
        let c = crop_resize(&img, BBox::new(2.0, 2.0, 4.0, 4.0), 6);
        assert_eq!(c.dims(), &[3, 6, 6]);
        // centre of crop equals centre region of source box
        assert_eq!(c.at(&[0, 3, 3]), img.at(&[0, 4, 4]));
        // degenerate/outside boxes still produce finite crops
        let c = crop_resize(&img, BBox::new(-10.0, -10.0, 1.0, 1.0), 4);
        assert!(c.is_finite());
    }

    #[test]
    fn crop_features_have_expected_dim_and_vary_by_region() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let scene = Scene::generate(&SceneConfig::default(), &mut rng);
        let rpn = ProposalNetwork::new(ProposalConfig::default(), 0);
        let props = vec![
            (BBox::new(0.0, 0.0, 16.0, 16.0), 0.9),
            (BBox::new(40.0, 20.0, 16.0, 16.0), 0.8),
        ];
        let feats = rpn.crop_features(&scene, &props);
        assert_eq!(feats.len(), 2);
        assert_eq!(feats[0].vector.numel(), rpn.crop_feat_dim());
        assert_ne!(feats[0].vector, feats[1].vector);
    }
}
