use crate::BBox;

/// Anchor hyper-parameters: one anchor per (scale × ratio) per feature-map
/// cell, as in RPN [28] (§3.3: "K anchors with different scales and aspect
/// ratios for each sliding window").
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorSpec {
    /// Anchor side lengths in *input-image* pixels.
    pub scales: Vec<f64>,
    /// Width/height aspect ratios.
    pub ratios: Vec<f64>,
    /// Feature-map stride in input pixels (8 for the C4 backbones here).
    pub stride: usize,
}

impl Default for AnchorSpec {
    fn default() -> Self {
        AnchorSpec {
            scales: vec![12.0, 24.0, 40.0],
            ratios: vec![0.5, 1.0, 2.0],
            stride: 8,
        }
    }
}

impl AnchorSpec {
    /// Anchors per feature-map cell (`K`).
    pub fn per_cell(&self) -> usize {
        self.scales.len() * self.ratios.len()
    }
}

/// The dense grid of anchors for one feature-map size.
///
/// Anchor order is row-major over cells, then scale-major × ratio within a
/// cell — the same order the detection head emits its logits in.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorGrid {
    boxes: Vec<BBox>,
    feat_h: usize,
    feat_w: usize,
    per_cell: usize,
}

impl AnchorGrid {
    /// Generates anchors for a `feat_h`×`feat_w` feature map.
    ///
    /// # Panics
    /// Panics if the spec has no scales or ratios.
    pub fn generate(feat_h: usize, feat_w: usize, spec: &AnchorSpec) -> Self {
        assert!(
            !spec.scales.is_empty() && !spec.ratios.is_empty(),
            "anchor spec must define scales and ratios"
        );
        let mut boxes = Vec::with_capacity(feat_h * feat_w * spec.per_cell());
        for i in 0..feat_h {
            for j in 0..feat_w {
                let cx = (j as f64 + 0.5) * spec.stride as f64;
                let cy = (i as f64 + 0.5) * spec.stride as f64;
                for &s in &spec.scales {
                    for &r in &spec.ratios {
                        // preserve area s^2 while skewing aspect
                        let w = s * r.sqrt();
                        let h = s / r.sqrt();
                        boxes.push(BBox::from_center(cx, cy, w, h));
                    }
                }
            }
        }
        AnchorGrid {
            boxes,
            feat_h,
            feat_w,
            per_cell: spec.per_cell(),
        }
    }

    /// All anchors, in head-output order.
    pub fn boxes(&self) -> &[BBox] {
        &self.boxes
    }

    /// Total anchor count (`feat_h * feat_w * K`).
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Anchors per cell (`K`).
    pub fn per_cell(&self) -> usize {
        self.per_cell
    }

    /// Feature-map height.
    pub fn feat_h(&self) -> usize {
        self.feat_h
    }

    /// Feature-map width.
    pub fn feat_w(&self) -> usize {
        self.feat_w
    }

    /// The `(cell_row, cell_col, k)` coordinates of anchor `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn cell_of(&self, idx: usize) -> (usize, usize, usize) {
        assert!(idx < self.len(), "anchor index out of range");
        let cell = idx / self.per_cell;
        (cell / self.feat_w, cell % self.feat_w, idx % self.per_cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_count_and_order() {
        let spec = AnchorSpec::default();
        let g = AnchorGrid::generate(2, 3, &spec);
        assert_eq!(g.len(), 2 * 3 * 9);
        assert_eq!(g.per_cell(), 9);
        // first anchor centred on cell (0,0) => (4, 4) with stride 8
        assert_eq!(g.boxes()[0].center(), (4.0, 4.0));
        // anchor of cell (1, 2): row 1 of a 3-cell-wide grid, column 2
        let idx = (3 + 2) * 9;
        assert_eq!(g.boxes()[idx].center(), (20.0, 12.0));
        assert_eq!(g.cell_of(idx), (1, 2, 0));
    }

    #[test]
    fn ratios_preserve_area() {
        let spec = AnchorSpec {
            scales: vec![16.0],
            ratios: vec![0.5, 1.0, 2.0],
            stride: 8,
        };
        let g = AnchorGrid::generate(1, 1, &spec);
        for b in g.boxes() {
            assert!((b.area() - 256.0).abs() < 1e-9, "{b:?}");
        }
    }

    #[test]
    fn every_image_point_is_covered_by_some_anchor() {
        // with default spec on a 6x9 map (48x72 image), any target-sized
        // object centre lies inside at least one anchor
        let spec = AnchorSpec::default();
        let g = AnchorGrid::generate(6, 9, &spec);
        for py in (2..46).step_by(4) {
            for px in (2..70).step_by(4) {
                assert!(
                    g.boxes()
                        .iter()
                        .any(|b| b.contains_point(px as f64, py as f64)),
                    "uncovered point ({px},{py})"
                );
            }
        }
    }
}
