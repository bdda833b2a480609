//! Criterion benches for the nn hot path: the three `Tensor` products at the
//! shapes training and serving run them, plus one training epoch of a
//! defense-matrix cell.
//!
//! * training shape: `190 × 128 × 128`, a mini-batch of 16 queries with ~12
//!   candidates each stacked into one matrix;
//! * serving shapes: `9 × 128 × 128` and `15 × 128 × 128`, one query;
//! * `train_epoch/c432`: one epoch of the c432 / M3 baseline cell's model
//!   (`EvalConfig::fast()`, its c880 + c1355 corpus) on one thread, the way
//!   the engine trains every cacheable model.
//!
//! Besides the usual per-bench lines, the last stdout line is one JSON
//! object (`{"nn_kernels": {...}}`) with the mean and minimum time per call
//! (µs for products, ms for the epoch), ready to append to `BENCH_nn.json`.
//! The bench uses only long-standing public APIs, so the same file runs
//! against older checkouts for before/after pairs.
//!
//! ```text
//! cargo bench -p deepsplit-bench --bench nn_kernels
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deepsplit_core::config::AttackConfig;
use deepsplit_core::train;
use deepsplit_defense::eval::{defended_corpus, EvalBase, EvalConfig};
use deepsplit_defense::DefenseConfig;
use deepsplit_layout::geom::Layer;
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_nn::tensor::Tensor;
use std::cell::RefCell;
use std::time::Duration;

/// Deterministic dense operand with a few exact zeros, like activations.
fn operand(rows: usize, cols: usize, seed: u32) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            let h = (i as u32 ^ seed).wrapping_mul(2_654_435_761) >> 8;
            if h.is_multiple_of(17) {
                0.0
            } else {
                (h % 2001) as f32 / 1000.0 - 1.0
            }
        })
        .collect();
    Tensor::from_vec(&[rows, cols], data)
}

/// `"name": {"mean_<unit>": …, "min_<unit>": …}` for one bench's samples.
fn summary(name: &str, times: &[Duration], unit: &str, per_second: f64) -> String {
    let mean = times.iter().sum::<Duration>() / times.len().max(1) as u32;
    let min = times.iter().min().copied().unwrap_or_default();
    format!(
        "\"{name}\": {{\"mean_{unit}\": {:.2}, \"min_{unit}\": {:.2}}}",
        mean.as_secs_f64() * per_second,
        min.as_secs_f64() * per_second
    )
}

fn bench_nn_kernels(c: &mut Criterion) {
    let results: RefCell<Vec<String>> = RefCell::new(Vec::new());

    let mut group = c.benchmark_group("nn_products");
    for (shape, rows, samples) in [("train", 190, 200), ("serve", 9, 2000), ("serve", 15, 2000)] {
        let x = operand(rows, 128, 1);
        let w = operand(128, 128, 2);
        let g = operand(rows, 128, 3);
        let label = format!("{shape}_{rows}x128x128");
        group.sample_size(samples);
        let products: [(&str, &dyn Fn() -> Tensor); 3] = [
            ("matmul", &|| x.matmul(&w)),
            ("t_matmul", &|| x.t_matmul(&g)),
            ("matmul_t", &|| g.matmul_t(&w)),
        ];
        for (name, product) in products {
            group.bench_with_input(BenchmarkId::new(name, &label), &(), |b, _| {
                b.iter(product);
                let entry = summary(&format!("{name}/{label}"), &b.times, "us", 1e6);
                results.borrow_mut().push(entry);
            });
        }
    }
    group.finish();

    let eval = EvalConfig::fast();
    let config = AttackConfig {
        epochs: 1,
        threads: 1,
        ..eval.attack.clone()
    };
    let base = EvalBase::build(Benchmark::C432, &eval);
    let corpus = defended_corpus(&base, Layer(3), &DefenseConfig::none(), &eval);
    let mut group = c.benchmark_group("train_epoch");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("epoch", "c432"), &corpus, |b, corpus| {
        b.iter(|| train::train(corpus, &config));
        let entry = summary("train_epoch/c432", &b.times, "ms", 1e3);
        results.borrow_mut().push(entry);
    });
    group.finish();

    println!(
        "{{\"nn_kernels\": {{{}}}}}",
        results.into_inner().join(", ")
    );
}

criterion_group!(benches, bench_nn_kernels);
criterion_main!(benches);
