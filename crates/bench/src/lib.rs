//! Shared scaffolding for the experiment binaries that regenerate every
//! table and figure of the paper (see DESIGN.md's experiment index).
//!
//! Each `src/bin/exp_*.rs` binary prints a markdown table mirroring one
//! paper table/figure; EXPERIMENTS.md records paper-vs-measured values.
//! The `YOLLO_SCALE` environment variable selects the preset:
//! `tiny` (seconds, CI smoke), `standard` (default, minutes), `full`
//! (tens of minutes, tightest numbers).

use std::time::Instant;

use yollo_core::{TrainConfig, Trainer, Yollo};
use yollo_obs::Json;
use yollo_synthref::{Dataset, DatasetConfig, DatasetKind};
use yollo_text::Vocab;
use yollo_twostage::{
    Listener, ListenerConfig, ProposalConfig, ProposalNetwork, ProposalScorer, RoiExtractor,
    Speaker, SpeakerConfig, TwoStageGrounder,
};

/// Experiment scale preset, selected via the `YOLLO_SCALE` env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per experiment; loose numbers (CI smoke).
    Tiny,
    /// The default: a few minutes per table.
    Standard,
    /// Larger datasets and longer training.
    Full,
}

impl Scale {
    /// Reads `YOLLO_SCALE` (defaults to [`Scale::Standard`]).
    pub fn from_env() -> Scale {
        match std::env::var("YOLLO_SCALE").as_deref() {
            Ok("tiny") => Scale::Tiny,
            Ok("full") => Scale::Full,
            _ => Scale::Standard,
        }
    }

    /// Dataset preset for this scale.
    pub fn dataset_config(self, kind: DatasetKind, seed: u64) -> DatasetConfig {
        match self {
            Scale::Tiny => DatasetConfig {
                train_images: 60,
                val_images: 24,
                test_images: 16,
                targets_per_image: 2,
                queries_per_target: 2,
                kind,
                seed,
            },
            Scale::Standard => DatasetConfig {
                train_images: 400,
                val_images: 80,
                test_images: 50,
                targets_per_image: 2,
                queries_per_target: 2,
                kind,
                seed,
            },
            Scale::Full => DatasetConfig {
                train_images: 600,
                val_images: 100,
                test_images: 60,
                targets_per_image: 2,
                queries_per_target: 2,
                kind,
                seed,
            },
        }
    }

    /// YOLLO training preset for this scale.
    pub fn train_config(self, seed: u64) -> TrainConfig {
        match self {
            Scale::Tiny => TrainConfig {
                iterations: 300,
                batch_size: 8,
                eval_every: 100,
                eval_samples: 24,
                seed,
                ..TrainConfig::default()
            },
            Scale::Standard => TrainConfig {
                iterations: 2000,
                batch_size: 16,
                eval_every: 200,
                eval_samples: 40,
                seed,
                ..TrainConfig::default()
            },
            Scale::Full => TrainConfig {
                iterations: 3200,
                batch_size: 16,
                eval_every: 400,
                eval_samples: 60,
                seed,
                ..TrainConfig::default()
            },
        }
    }
}

/// Generates the dataset for `kind` at the current scale (seed fixed so all
/// experiment binaries agree).
pub fn dataset(scale: Scale, kind: DatasetKind) -> Dataset {
    Dataset::generate(scale.dataset_config(kind, 2022))
}

/// Trains a fresh YOLLO on `ds`, printing progress, and returns it with its
/// training log.
pub fn train_yollo(scale: Scale, ds: &Dataset, seed: u64) -> (Yollo, yollo_core::TrainLog) {
    let mut model = Yollo::for_dataset(ds, seed);
    let t0 = Instant::now();
    let log = Trainer::new(scale.train_config(seed)).train(&mut model, ds);
    eprintln!(
        "  trained YOLLO ({} iters) in {:.1}s; loss {:.3} -> {:.3}",
        log.points.len(),
        t0.elapsed().as_secs_f64(),
        log.early_loss(10).unwrap_or(f64::NAN),
        log.late_loss(10).unwrap_or(f64::NAN),
    );
    (model, log)
}

/// Cache location for a trained model, so experiment binaries share one
/// training run per (dataset, ablation, scale) instead of retraining.
pub fn model_cache_path(
    scale: Scale,
    kind: DatasetKind,
    ablation: yollo_core::AttentionAblation,
) -> std::path::PathBuf {
    let slug = kind.name().to_lowercase().replace('+', "plus");
    output_dir().join(format!("yollo_{slug}_{ablation:?}_{scale:?}.yart"))
}

fn log_cache_path(scale: Scale, kind: DatasetKind) -> std::path::PathBuf {
    let slug = kind.name().to_lowercase().replace('+', "plus");
    output_dir().join(format!("yollo_{slug}_{scale:?}_log.json"))
}

/// Loads the cached trained model for `(scale, kind)` or trains and caches
/// it (plus its training log). Returns the model and the training curve.
pub fn load_or_train_yollo(
    scale: Scale,
    ds: &Dataset,
    kind: DatasetKind,
    seed: u64,
) -> (Yollo, yollo_core::TrainLog) {
    let path = model_cache_path(scale, kind, yollo_core::AttentionAblation::Full);
    let log_path = log_cache_path(scale, kind);
    if path.exists() && log_path.exists() {
        if let (Ok(model), Ok(text)) = (Yollo::load(&path), std::fs::read_to_string(&log_path)) {
            let log = Json::parse(&text)
                .ok()
                .and_then(|j| yollo_core::TrainLog::from_json(&j).ok());
            if let Some(log) = log {
                eprintln!("  loaded cached model {}", path.display());
                return (model, log);
            }
        }
    }
    let (model, log) = train_yollo(scale, ds, seed);
    model.save(&path).expect("can cache model");
    std::fs::write(&log_path, log.to_json().to_string()).expect("can cache log");
    (model, log)
}

/// Trains a YOLLO variant with a Rel2Att quadrant ablation (Table 4 rows).
pub fn train_yollo_with_ablation(
    scale: Scale,
    ds: &Dataset,
    seed: u64,
    ablation: yollo_core::AttentionAblation,
) -> Yollo {
    // the Full "ablation" is the shared baseline model — reuse its cache
    let kind = ds.config().kind;
    let path = model_cache_path(scale, kind, ablation);
    if path.exists() {
        if let Ok(model) = Yollo::load(&path) {
            eprintln!("  loaded cached model {}", path.display());
            return model;
        }
    }
    if ablation == yollo_core::AttentionAblation::Full {
        return load_or_train_yollo(scale, ds, kind, seed).0;
    }
    let cfg = yollo_core::YolloConfig {
        ablation,
        ..yollo_core::YolloConfig::for_dataset(ds)
    };
    let mut model = Yollo::new(cfg, seed);
    model.set_vocab(ds.build_vocab());
    let t0 = Instant::now();
    // ablated variants train on a reduced budget (they are contrasts, not
    // headline numbers; six of them retrain in Table 4 alone)
    let base = scale.train_config(seed);
    let tc = TrainConfig {
        iterations: base.iterations / 2,
        eval_every: 0,
        ..base
    };
    let log = Trainer::new(tc).train(&mut model, ds);
    eprintln!(
        "  trained {} in {:.1}s; loss {:.3} -> {:.3}",
        ablation.name(),
        t0.elapsed().as_secs_f64(),
        log.early_loss(10).unwrap_or(f64::NAN),
        log.late_loss(10).unwrap_or(f64::NAN),
    );
    model.save(&path).expect("can cache model");
    model
}

/// The trained two-stage baseline family for one dataset (Table 2/5 rows).
#[derive(Debug)]
pub struct Baselines {
    /// Stage-i proposal network (shared by all stage-ii scorers).
    pub rpn: ProposalNetwork,
    /// RoI feature extractor.
    pub roi: RoiExtractor,
    /// Joint-embedding matcher.
    pub listener: Listener,
    /// Conditional-LM matcher.
    pub speaker: Speaker,
    /// Listener trained with the MMI contrastive margin.
    pub listener_mmi: Listener,
    /// Speaker trained with the MMI contrastive margin.
    pub speaker_mmi: Speaker,
    /// Vocabulary shared with the dataset.
    pub vocab: Vocab,
    /// Query padding length.
    pub max_query_len: usize,
}

impl Baselines {
    /// A grounder over the shared stage i and the given stage-ii scorer.
    pub fn grounder<'a>(&'a self, scorer: &'a dyn ProposalScorer) -> TwoStageGrounder<'a> {
        TwoStageGrounder::new(&self.rpn, self.roi, scorer, &self.vocab, self.max_query_len)
    }
}

/// Baseline training budgets per scale: (rpn iters, matcher iters).
fn baseline_iters(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Tiny => (60, 250),
        Scale::Standard => (150, 900),
        Scale::Full => (300, 1800),
    }
}

/// Trains the full two-stage baseline family on `ds`.
pub fn train_baselines(scale: Scale, ds: &Dataset, seed: u64) -> Baselines {
    use yollo_twostage::CandidateCache;
    let (rpn_iters, match_iters) = baseline_iters(scale);
    let t0 = Instant::now();
    let mut rpn = ProposalNetwork::new(
        ProposalConfig {
            proposals_per_image: 60,
            ..ProposalConfig::default()
        },
        seed,
    );
    let rpn_loss = rpn.train(ds, rpn_iters, 4, seed ^ 0xA11);
    let roi = RoiExtractor::new(8, 2);
    let cache = CandidateCache::build(&rpn, roi, ds);
    let vocab = ds.build_vocab();
    let feat_dim = roi.feat_dim(rpn.backbone().out_channels());
    let l_cfg = ListenerConfig::small(feat_dim, vocab.len());
    let s_cfg = SpeakerConfig::small(feat_dim, vocab.len());

    let mut listener = Listener::new(l_cfg, seed ^ 1);
    listener.train(ds, &vocab, &cache, match_iters, seed ^ 2);
    let mut listener_mmi = Listener::new(
        ListenerConfig {
            mmi_margin: Some(0.5),
            ..l_cfg
        },
        seed ^ 3,
    );
    listener_mmi.train(ds, &vocab, &cache, match_iters, seed ^ 4);
    let mut speaker = Speaker::new(s_cfg, seed ^ 5);
    speaker.train(ds, &vocab, &cache, match_iters, seed ^ 6);
    let mut speaker_mmi = Speaker::new(
        SpeakerConfig {
            mmi_margin: Some(0.5),
            ..s_cfg
        },
        seed ^ 7,
    );
    speaker_mmi.train(ds, &vocab, &cache, match_iters, seed ^ 8);
    eprintln!(
        "  trained two-stage baselines in {:.1}s (rpn loss {rpn_loss:.3})",
        t0.elapsed().as_secs_f64()
    );
    Baselines {
        rpn,
        roi,
        listener,
        speaker,
        listener_mmi,
        speaker_mmi,
        vocab,
        max_query_len: ds.max_query_len(),
    }
}

/// Directory where experiment outputs (CSV, PPM, JSON, traces, every
/// `BENCH_*.json`) are written: `target/experiments` under the workspace
/// root. The committed `BENCH_*.json` files at the root are copies of
/// runs at the scale each file records.
pub fn output_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("can create experiment output dir");
    dir
}

/// `path` as a report records it: relative to the workspace root when it
/// lies inside the checkout, so a committed report names no machine's
/// directories; otherwise as given. `path` must exist.
pub fn checkout_relative(path: &std::path::Path) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match (root.canonicalize(), path.canonicalize()) {
        (Ok(root), Ok(full)) => match full.strip_prefix(&root) {
            Ok(rel) => rel.display().to_string(),
            Err(_) => full.display().to_string(),
        },
        _ => path.display().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_record_checkout_paths_relative_to_the_root() {
        assert_eq!(checkout_relative(&output_dir()), "target/experiments");
        let outside = std::env::temp_dir()
            .canonicalize()
            .expect("temp dir exists");
        assert_eq!(checkout_relative(&outside), outside.display().to_string());
    }

    #[test]
    fn scale_from_env_defaults_to_standard() {
        // (env var not set in tests)
        if std::env::var("YOLLO_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Standard);
        }
    }

    #[test]
    fn presets_are_ordered_by_size() {
        let k = DatasetKind::SynthRef;
        assert!(
            Scale::Tiny.dataset_config(k, 0).train_images
                < Scale::Standard.dataset_config(k, 0).train_images
        );
        assert!(
            Scale::Standard.train_config(0).iterations < Scale::Full.train_config(0).iterations
        );
    }
}
