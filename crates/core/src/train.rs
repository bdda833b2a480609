//! Training loop (paper §4.3 / §5): softmax-regression (or two-class) loss,
//! Adam, learning rate 0.001 decayed to 60 % every 20 epochs, data-parallel
//! gradient accumulation over CPU threads.

use crate::config::AttackConfig;
use crate::dataset::{fit_normalizer, PreparedDesign};
use crate::fingerprint::CorpusFingerprint;
use crate::model::{AttackModel, LossKind, ModelKind};
use crate::store::ModelStore;
use crate::vector_features::Normalizer;
use deepsplit_nn::layers::{add_grads, export_grads, scale_grads, Params};
use deepsplit_nn::loss::{softmax_regression, two_class};
use deepsplit_nn::optim::{Adam, Optimizer, StepDecay};
use deepsplit_nn::parallel::parallel_map;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A trained attack: model plus the feature normaliser fitted on the
/// training designs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedAttack {
    /// The network.
    pub model: AttackModel,
    /// Feature normalisation fitted on training data.
    pub normalizer: Normalizer,
    /// The configuration it was trained under.
    pub config: AttackConfig,
}

impl TrainedAttack {
    /// Serialises the trained attack to JSON.
    ///
    /// # Errors
    ///
    /// Returns any serde error.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Restores a trained attack from JSON.
    ///
    /// # Errors
    ///
    /// Returns any serde error.
    pub fn from_json(s: &str) -> serde_json::Result<TrainedAttack> {
        serde_json::from_str(s)
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_loss: Vec<f32>,
    /// Number of trainable queries (sink fragments with a covered positive).
    pub trainable_queries: usize,
    /// Total queries across the training designs.
    pub total_queries: usize,
}

/// Trains the attack network on the given prepared designs.
///
/// Only queries whose positive VPP survived candidate selection are trainable
/// (the paper notes the prediction is "definitely wrong" otherwise); the rest
/// still count at evaluation time.
///
/// # Panics
///
/// Panics if no design provides a trainable query, or if image channel counts
/// disagree across designs.
pub fn train(designs: &[PreparedDesign], config: &AttackConfig) -> (TrainedAttack, TrainReport) {
    let normalizer = fit_normalizer(designs);
    let channels = designs.iter().map(|d| d.channels).max().unwrap_or(0);
    for d in designs {
        assert!(
            d.channels == channels || d.channels == 0,
            "image channel mismatch across designs"
        );
    }
    let kind = if config.use_images {
        ModelKind::VecImg
    } else {
        ModelKind::VecOnly
    };
    let loss_kind = if config.two_class {
        LossKind::TwoClass
    } else {
        LossKind::SoftmaxRegression
    };
    let mut model = AttackModel::new(kind, loss_kind, channels, config.seed);

    // Trainable query index: (design, query).
    let mut queries: Vec<(usize, usize)> = Vec::new();
    let mut total = 0usize;
    for (di, d) in designs.iter().enumerate() {
        for qi in 0..d.num_queries() {
            total += 1;
            if d.target(qi).is_some() && d.sets[qi].candidates.len() >= 2 {
                queries.push((di, qi));
            }
        }
    }
    assert!(!queries.is_empty(), "no trainable queries");

    let schedule = StepDecay {
        initial: config.learning_rate as f32,
        factor: config.lr_decay as f32,
        every: config.lr_decay_every,
    };
    let mut opt = Adam::new(schedule.initial);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7ea1);
    let threads = config.effective_threads();
    let mut report = TrainReport {
        epoch_loss: Vec::with_capacity(config.epochs),
        trainable_queries: queries.len(),
        total_queries: total,
    };

    for epoch in 0..config.epochs {
        // Telemetry only: the span/event stream never feeds content-addressed
        // state, and is a no-op unless a binary installed a trace recorder.
        let _epoch_span = deepsplit_obs::span("train_epoch");
        opt.set_lr(schedule.lr_at(epoch));
        queries.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut steps = 0usize;
        for batch in queries.chunks(config.batch_size.max(1)) {
            // Shard the batch over threads; each worker clones the model,
            // accumulates gradients over its shard, and returns them.
            let shard_size = batch.len().div_ceil(threads);
            let shards: Vec<&[(usize, usize)]> = batch.chunks(shard_size.max(1)).collect();
            let results = parallel_map(&shards, threads, |shard| {
                let mut m = model.clone();
                m.zero_grad();
                let mut loss_sum = 0.0f64;
                for &(di, qi) in shard.iter() {
                    let d = &designs[di];
                    let vectors = d.vectors(qi, &normalizer);
                    let images = d.images(qi);
                    let target = d.target(qi).expect("trainable query");
                    let scores = m.forward_query(&vectors, images.as_ref(), true);
                    let (loss, grad) = match loss_kind {
                        LossKind::SoftmaxRegression => softmax_regression(&scores, target),
                        LossKind::TwoClass => two_class(&scores, target),
                    };
                    m.backward_query(&grad);
                    loss_sum += loss as f64;
                }
                (export_grads(&mut m), loss_sum, shard.len())
            });
            model.zero_grad();
            let mut batch_loss = 0.0f64;
            let mut count = 0usize;
            for (grads, loss_sum, n) in results {
                add_grads(&mut model, &grads);
                batch_loss += loss_sum;
                count += n;
            }
            scale_grads(&mut model, 1.0 / count.max(1) as f32);
            opt.step(&mut model);
            epoch_loss += batch_loss;
            steps += count;
        }
        let mean_loss = (epoch_loss / steps.max(1) as f64) as f32;
        deepsplit_obs::event("epoch_loss", Some(f64::from(mean_loss)));
        report.epoch_loss.push(mean_loss);
    }

    (
        TrainedAttack {
            model,
            normalizer,
            config: config.clone(),
        },
        report,
    )
}

/// Content-addressed training: returns the model stored under `key` when the
/// store has one, otherwise builds the corpus (the closure runs only on a
/// miss — a hit skips corpus preparation entirely), trains, and stores the
/// result.
///
/// `Some(report)` is returned only when training actually ran, so
/// `report.is_none()` (equivalently, the store's hit counter) witnesses that
/// a cell performed zero training epochs.
///
/// # Panics
///
/// Panics as [`train`] does when training runs.
pub fn train_or_load<F>(
    key: &CorpusFingerprint,
    store: &dyn ModelStore,
    config: &AttackConfig,
    corpus: F,
) -> (TrainedAttack, Option<TrainReport>)
where
    F: FnOnce() -> Vec<PreparedDesign>,
{
    if let Some(model) = store.load(key) {
        return (model, None);
    }
    let designs = corpus();
    let (trained, report) = train(&designs, config);
    store.save(key, &trained);
    (trained, Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryModelStore;
    use deepsplit_layout::design::{Design, ImplementConfig};
    use deepsplit_layout::geom::Layer;
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    fn prepared(bench: Benchmark, seed: u64, config: &AttackConfig) -> PreparedDesign {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(bench, 0.4, seed, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::default());
        PreparedDesign::prepare(&d, Layer(3), config)
    }

    fn tiny_config(use_images: bool) -> AttackConfig {
        AttackConfig {
            use_images,
            epochs: 3,
            candidates: 8,
            image_px: 9,
            image_scales_um: vec![0.2, 0.6],
            batch_size: 8,
            threads: 2,
            ..AttackConfig::fast()
        }
    }

    #[test]
    fn training_loss_decreases_vec_only() {
        let config = tiny_config(false);
        let designs = vec![
            prepared(Benchmark::C432, 1, &config),
            prepared(Benchmark::C880, 2, &config),
        ];
        let (trained, report) = train(&designs, &config);
        assert_eq!(report.epoch_loss.len(), 3);
        assert!(
            report.epoch_loss.last().unwrap() < report.epoch_loss.first().unwrap(),
            "loss should fall: {:?}",
            report.epoch_loss
        );
        assert!(report.trainable_queries > 0);
        let _ = trained;
    }

    #[test]
    fn training_with_images_runs() {
        let config = tiny_config(true);
        let designs = vec![prepared(Benchmark::C432, 1, &config)];
        let (trained, report) = train(&designs, &config);
        assert!(report.epoch_loss.iter().all(|l| l.is_finite()));
        assert_eq!(trained.model.kind, crate::model::ModelKind::VecImg);
    }

    #[test]
    fn two_class_training_runs() {
        let config = AttackConfig {
            two_class: true,
            ..tiny_config(false)
        };
        let designs = vec![prepared(Benchmark::C432, 1, &config)];
        let (trained, report) = train(&designs, &config);
        assert_eq!(trained.model.loss, LossKind::TwoClass);
        assert!(report.epoch_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn serialization_round_trip() {
        let config = AttackConfig {
            epochs: 1,
            ..tiny_config(false)
        };
        let designs = vec![prepared(Benchmark::C432, 1, &config)];
        let (trained, _) = train(&designs, &config);
        let json = trained.to_json().unwrap();
        let back = TrainedAttack::from_json(&json).unwrap();
        assert_eq!(back.config, trained.config);
    }

    #[test]
    fn train_or_load_skips_training_on_hit() {
        let config = AttackConfig {
            epochs: 2,
            ..tiny_config(false)
        };
        let designs = vec![prepared(Benchmark::C432, 1, &config)];
        let store = MemoryModelStore::new();
        let key = CorpusFingerprint([41, 42]);

        let (cold, report) = train_or_load(&key, &store, &config, move || designs);
        assert!(report.is_some(), "cold run must train");

        // Warm run: the corpus closure must not even be called.
        let (warm, report) = train_or_load(&key, &store, &config, || {
            panic!("cache hit must not rebuild the corpus")
        });
        assert!(report.is_none(), "warm run must not train");
        assert_eq!(store.counters().hits, 1);
        assert_eq!(store.counters().misses, 1);
        // The cached model carries the same weights: identical JSON encoding.
        assert_eq!(cold.to_json().unwrap(), warm.to_json().unwrap());
    }

    #[test]
    fn training_is_deterministic() {
        let config = AttackConfig {
            epochs: 2,
            ..tiny_config(false)
        };
        let designs = vec![prepared(Benchmark::C432, 1, &config)];
        let (_, r1) = train(&designs, &config);
        let (_, r2) = train(&designs, &config);
        assert_eq!(r1.epoch_loss, r2.epoch_loss);
    }
}
