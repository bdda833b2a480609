//! Inference: attacking a split layout with a trained model.
//!
//! The image tower embeddings are computed once per unique virtual-pin image
//! and reused across queries (source fragments appear in many candidate
//! lists), then each sink fragment's candidates are scored and the argmax VPP
//! is selected (paper Eq. 2).

use crate::dataset::{stack_batch, ImageKey, PreparedDesign};
use crate::model::{AttackModel, LossKind, ModelKind};
use crate::train::TrainedAttack;
use deepsplit_flow::metrics::Assignment;
use deepsplit_layout::split::FragId;
use deepsplit_nn::parallel::parallel_map;
use deepsplit_nn::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Result of attacking one design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// Chosen source fragment per sink fragment.
    pub assignment: Assignment,
    /// Wall-clock inference time (embedding + scoring).
    pub inference: Duration,
}

/// Scores every sink fragment of `prepared` and picks the best candidate VPP.
pub fn attack(trained: &TrainedAttack, prepared: &PreparedDesign) -> AttackOutcome {
    attack_with_threads(trained, prepared, trained.config.effective_threads())
}

/// [`attack`] with an explicit worker-thread count: the top-1 assignment
/// and inference time of [`attack_ranked`].
///
/// Inference is thread-count invariant (every query is scored independently
/// and shards preserve order), so a sweep may run a cached model with
/// however many threads its scheduler has to spare — unlike training, where
/// the thread count shapes gradient-accumulation order and is part of the
/// model's identity.
pub fn attack_with_threads(
    trained: &TrainedAttack,
    prepared: &PreparedDesign,
    threads: usize,
) -> AttackOutcome {
    let ranked = attack_ranked(trained, prepared, 1, threads);
    AttackOutcome {
        assignment: ranked.assignment(),
        inference: ranked.inference,
    }
}

/// Maps `f` over `items` in order on up to `threads` workers. Each worker
/// takes one contiguous shard and clones the model once for all of it.
fn map_sharded<T: Sync, R: Send>(
    model: &AttackModel,
    items: &[T],
    threads: usize,
    f: impl Fn(&mut AttackModel, &T) -> R + Sync,
) -> Vec<R> {
    let shards: Vec<&[T]> = items.chunks(items.len().div_ceil(threads).max(1)).collect();
    let results = parallel_map(&shards, threads, |shard| {
        let mut m = model.clone();
        shard.iter().map(|item| f(&mut m, item)).collect::<Vec<_>>()
    });
    results.into_iter().flatten().collect()
}

/// Embeds every unique virtual-pin image once, in batches of 8. Empty when the model or design carries no images.
fn embed_unique_images(
    trained: &TrainedAttack,
    prepared: &PreparedDesign,
    threads: usize,
    use_images: bool,
) -> HashMap<ImageKey, Tensor> {
    if !use_images {
        return HashMap::new();
    }
    // Sorted so batch composition (and thus batch-norm-free embedding
    // order) is identical run to run regardless of HashMap seed.
    // splint::allow(D1, "keys are sorted on the next line before any use")
    let mut keys: Vec<ImageKey> = prepared.images.keys().copied().collect();
    keys.sort_unstable();
    let batches: Vec<&[ImageKey]> = keys.chunks(8).collect();
    let embedded = map_sharded(&trained.model, &batches, threads, |m, batch| {
        let imgs: Vec<&Tensor> = batch.iter().map(|k| &prepared.images[k]).collect();
        let emb = m.embed_images(&stack_batch(&imgs), false);
        (0..emb.dims2().0).map(|r| emb.row(r)).collect::<Vec<_>>()
    });
    keys.into_iter()
        .zip(embedded.into_iter().flatten())
        .collect()
}

/// Raw per-candidate scores of query `qi`, in candidate order: logits for
/// the softmax-regression head, independent probabilities for the
/// two-class head. This is the argmax input — pass it through
/// [`confidence_distribution`] before reporting values as probabilities.
fn query_scores(
    m: &mut AttackModel,
    trained: &TrainedAttack,
    prepared: &PreparedDesign,
    embeddings: &HashMap<ImageKey, Tensor>,
    qi: usize,
    use_images: bool,
) -> Vec<f32> {
    let vectors = prepared.vectors(qi, &trained.normalizer);
    let scores = if use_images {
        let (sink_key, cand_keys) = &prepared.image_keys[qi];
        let src_rows: Vec<&Tensor> = cand_keys.iter().map(|k| &embeddings[k]).collect();
        let src = stack_batch(&src_rows);
        m.score_from_embeddings(&vectors, Some((&src, &embeddings[sink_key])), false)
    } else {
        m.score_from_embeddings(&vectors, None, false)
    };
    m.candidate_scores(&scores)
}

/// Turns the model's per-candidate scores into a probability distribution
/// over the candidate list (paper Eq. 2). Softmax-regression scores are raw
/// logits, so they pass through a (numerically stable) softmax; two-class
/// scores are already per-candidate probabilities and are normalised to sum
/// to one. Both transforms are strictly monotone, so the ranking they induce
/// is exactly the raw argmax ranking.
fn confidence_distribution(loss: LossKind, scores: &[f32]) -> Vec<f32> {
    match loss {
        LossKind::SoftmaxRegression => deepsplit_nn::loss::softmax(scores),
        LossKind::TwoClass => {
            let sum: f32 = scores.iter().sum();
            if sum > 0.0 {
                scores.iter().map(|&p| p / sum).collect()
            } else {
                vec![1.0 / scores.len().max(1) as f32; scores.len()]
            }
        }
    }
}

/// One sink fragment's scored candidate list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedQuery {
    /// The sink fragment being resolved.
    pub sink: FragId,
    /// Its broken-pin count `cᵢ` — the weight it carries in CCR (Eq. 1).
    pub sink_pins: usize,
    /// `(candidate source, softmax confidence)`, best first; ties broken
    /// toward the earlier candidate-list position, matching [`attack`]'s
    /// argmax exactly.
    pub ranked: Vec<(FragId, f32)>,
}

/// Result of ranked inference: everything [`attack`] computes, but keeping
/// the full per-candidate confidence distribution instead of only the
/// argmax — the payload an inference service returns to its callers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedOutcome {
    /// One entry per sink fragment with at least one candidate, in sink
    /// order.
    pub queries: Vec<RankedQuery>,
    /// Wall-clock inference time (embedding + scoring).
    pub inference: Duration,
}

impl RankedOutcome {
    /// The top-1 assignment — identical to what [`attack`] returns for the
    /// same model and design.
    pub fn assignment(&self) -> Assignment {
        self.queries
            .iter()
            .filter(|q| !q.ranked.is_empty())
            .map(|q| (q.sink, q.ranked[0].0))
            .collect()
    }
}

/// Ranked inference: scores every sink fragment's candidates and keeps the
/// `top_k` best per sink (`0` = all), sorted by descending confidence.
///
/// This is the one inference loop; [`attack`] and [`attack_with_threads`]
/// keep its top-1. The ordering is total and deterministic (raw score, then
/// candidate-list position), and the result is thread-count invariant.
pub fn attack_ranked(
    trained: &TrainedAttack,
    prepared: &PreparedDesign,
    top_k: usize,
    threads: usize,
) -> RankedOutcome {
    let start = Instant::now();
    let threads = threads.max(1);
    let use_images = trained.model.kind == ModelKind::VecImg && prepared.channels > 0;
    let embeddings = embed_unique_images(trained, prepared, threads, use_images);

    let indices: Vec<usize> = (0..prepared.num_queries())
        .filter(|&qi| !prepared.sets[qi].candidates.is_empty())
        .collect();
    let queries = map_sharded(&trained.model, &indices, threads, |m, &qi| {
        let set = &prepared.sets[qi];
        let scores = query_scores(m, trained, prepared, &embeddings, qi, use_images);
        let probs = confidence_distribution(trained.model.loss, &scores);
        // Sort on the RAW scores with candidate-list position as the
        // tie-break. Sorting on the normalised probabilities instead could
        // disagree on candidates whose distinct scores round to one
        // probability.
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        if top_k > 0 {
            order.truncate(top_k);
        }
        RankedQuery {
            sink: set.sink,
            sink_pins: prepared.view.fragment(set.sink).sink_count,
            ranked: order
                .into_iter()
                .map(|i| (set.candidates[i].source, probs[i]))
                .collect(),
        }
    });

    RankedOutcome {
        queries,
        inference: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttackConfig;
    use crate::train::train;
    use deepsplit_flow::metrics::ccr;
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

    fn tiny(use_images: bool) -> AttackConfig {
        AttackConfig {
            use_images,
            epochs: 6,
            candidates: 8,
            image_px: 9,
            image_scales_um: vec![0.2, 0.6],
            batch_size: 8,
            threads: 2,
            ..AttackConfig::fast()
        }
    }

    #[test]
    fn attack_assigns_every_sink_with_candidates() {
        let config = tiny(false);
        let train_d = vec![prepared(Benchmark::C880, 3, &config)];
        let (trained, _) = train(&train_d, &config);
        let victim = prepared(Benchmark::C432, 4, &config);
        let outcome = attack(&trained, &victim);
        let with_cands = victim
            .sets
            .iter()
            .filter(|s| !s.candidates.is_empty())
            .count();
        assert_eq!(outcome.assignment.len(), with_cands);
    }

    #[test]
    fn trained_attack_beats_chance() {
        let config = tiny(false);
        let train_d = vec![
            prepared(Benchmark::C880, 3, &config),
            prepared(Benchmark::C1355, 5, &config),
        ];
        let (trained, _) = train(&train_d, &config);
        let victim = prepared(Benchmark::C432, 4, &config);
        let outcome = attack(&trained, &victim);
        let score = ccr(&victim.view, &outcome.assignment);
        let chance = 1.0 / victim.view.num_source_fragments().max(1) as f64;
        assert!(score > 2.0 * chance, "CCR {score} vs chance {chance}");
    }

    #[test]
    fn image_model_attack_runs() {
        let config = tiny(true);
        let train_d = vec![prepared(Benchmark::C432, 3, &config)];
        let (trained, _) = train(&train_d, &config);
        let victim = prepared(Benchmark::C880, 4, &config);
        let outcome = attack(&trained, &victim);
        assert!(!outcome.assignment.is_empty());
        assert!(outcome.inference > Duration::ZERO);
    }

    #[test]
    fn attack_is_deterministic() {
        let config = tiny(false);
        let train_d = vec![prepared(Benchmark::C880, 3, &config)];
        let (trained, _) = train(&train_d, &config);
        let victim = prepared(Benchmark::C432, 4, &config);
        let a = attack(&trained, &victim);
        let b = attack(&trained, &victim);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn ranked_top1_matches_argmax_attack() {
        for use_images in [false, true] {
            let config = AttackConfig {
                epochs: 2,
                ..tiny(use_images)
            };
            let train_d = vec![prepared(Benchmark::C880, 3, &config)];
            let (trained, _) = train(&train_d, &config);
            let victim = prepared(Benchmark::C432, 4, &config);
            let plain = attack(&trained, &victim);
            let ranked = attack_ranked(&trained, &victim, 0, 3);
            assert_eq!(
                ranked.assignment(),
                plain.assignment,
                "images={use_images}: ranked top-1 must reproduce the argmax"
            );
            for q in &ranked.queries {
                assert!(q.sink_pins > 0, "sink weight must be positive");
                let mut last = f32::INFINITY;
                let mut sum = 0.0f32;
                for &(_, p) in &q.ranked {
                    assert!((0.0..=1.0).contains(&p), "confidence {p} outside [0, 1]");
                    assert!(p <= last, "confidences must be sorted descending");
                    last = p;
                    sum += p;
                }
                assert!(
                    (sum - 1.0).abs() < 1e-3,
                    "untruncated softmax confidences must sum to 1, got {sum}"
                );
            }
        }
    }

    #[test]
    fn ranked_truncates_to_top_k() {
        for use_images in [false, true] {
            let config = AttackConfig {
                epochs: 2,
                ..tiny(use_images)
            };
            let train_d = vec![prepared(Benchmark::C880, 3, &config)];
            let (trained, _) = train(&train_d, &config);
            let victim = prepared(Benchmark::C432, 4, &config);
            let full = attack_ranked(&trained, &victim, 0, 2);
            let top2 = attack_ranked(&trained, &victim, 2, 2);
            assert_eq!(full.queries.len(), top2.queries.len());
            for (f, t) in full.queries.iter().zip(&top2.queries) {
                assert!(t.ranked.len() <= 2);
                assert_eq!(
                    &f.ranked[..t.ranked.len()],
                    &t.ranked[..],
                    "top-k must be a prefix of the full ranking"
                );
            }
            // Thread-count invariance extends to the full ranking on both
            // paths (the wall clock obviously varies, the queries must not).
            for threads in [1, 7] {
                let other = attack_ranked(&trained, &victim, 0, threads);
                assert_eq!(
                    full.queries, other.queries,
                    "images={use_images}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn inference_is_thread_count_invariant() {
        // The model-store contract depends on this: a cached model evaluated
        // with a different thread budget must reproduce identical scores.
        for use_images in [false, true] {
            let config = AttackConfig {
                epochs: 2,
                ..tiny(use_images)
            };
            let train_d = vec![prepared(Benchmark::C880, 3, &config)];
            let (trained, _) = train(&train_d, &config);
            let victim = prepared(Benchmark::C432, 4, &config);
            let one = attack_with_threads(&trained, &victim, 1);
            let many = attack_with_threads(&trained, &victim, 7);
            assert_eq!(one.assignment, many.assignment, "images={use_images}");
        }
    }
}
