//! The defense-sweep workloads: `deepsplit_engine::run` over a fast-profile
//! matrix, cold (empty disk store) or warm (store filled during set-up).

use crate::{Outcome, Scratch};
use deepsplit_core::store::DiskModelStore;
use deepsplit_defense::eval::{EvalConfig, EvalOutcome};
use deepsplit_defense::sweep::SweepConfig;
use deepsplit_defense::DefenseKind;
use deepsplit_engine::{EngineConfig, MatrixReport, MatrixRun};
use deepsplit_layout::design::Design;
use deepsplit_layout::split::split_design;
use deepsplit_netlist::benchmarks::{self, Benchmark};
use deepsplit_netlist::library::CellLibrary;
use std::path::Path;
use std::time::Instant;

/// The CI golden artifact `sweep_cold` must reproduce at the default seed.
pub const GOLDEN: &str = "ci/pareto-golden.json";

/// Victims of `sweep_warm`. None is in the training corpus, so all five
/// share `sweep_cold`'s three model fingerprints.
pub const WARM_VICTIMS: [Benchmark; 5] = [
    Benchmark::C432,
    Benchmark::C1908,
    Benchmark::C2670,
    Benchmark::C3540,
    Benchmark::C5315,
];

/// The golden matrix: c432 split after M3, baseline plus lift and obfuscate
/// at strength 0.5, fast profile. The seed orders the two defenses (the
/// default seed keeps the golden order), so every seed sweeps the same
/// cells with the same models and the same results.
pub fn cold_spec(seed: u64) -> SweepConfig {
    SweepConfig {
        kinds: permuted(vec![DefenseKind::Lift, DefenseKind::Obfuscate], seed),
        strengths: vec![0.5],
        eval: EvalConfig::fast(),
        ..SweepConfig::fast()
    }
}

/// The cold matrix over [`WARM_VICTIMS`]: 15 cells, three fingerprints.
/// The victims keep their order at every seed: the engine hands cells to
/// its two threads in matrix order, and with victims of very different
/// sizes a shuffled order moved the wall time of a call by up to 50 %.
pub fn warm_spec(seed: u64) -> SweepConfig {
    SweepConfig {
        benchmarks: WARM_VICTIMS.to_vec(),
        ..cold_spec(seed)
    }
}

/// A seeded Fisher–Yates shuffle; the default seed leaves `items` as given.
fn permuted<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    if seed == crate::DEFAULT_SEED {
        return items;
    }
    let mut rng = crate::stats::SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    items
}

/// Ground truth for a victim's baseline row, from an independent
/// implementation of its layout.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimRef {
    benchmark: String,
    wirelength: i64,
    sink_fragments: usize,
    source_fragments: usize,
}

/// Implements each victim of `spec` the way the engine does and records
/// what its undefended split must look like.
pub fn victim_refs(spec: &SweepConfig) -> Vec<VictimRef> {
    let lib = CellLibrary::nangate45();
    let mut refs = Vec::new();
    for &bench in &spec.benchmarks {
        for &layer in &spec.split_layers {
            let nl = benchmarks::generate_with(bench, spec.eval.scale, spec.eval.victim_seed, &lib);
            let design = Design::implement(nl, lib.clone(), &spec.eval.implement);
            let view = split_design(&design, layer);
            refs.push(VictimRef {
                benchmark: bench.name().to_string(),
                wirelength: design.total_wirelength(),
                sink_fragments: view.num_sink_fragments(),
                source_fragments: view.num_source_fragments(),
            });
        }
    }
    refs
}

/// Checks a sweep's cells against its spec and the victims' ground truth;
/// returns one line per wrong cell.
pub fn check_cells(
    spec: &SweepConfig,
    outcomes: &[EvalOutcome],
    refs: &[VictimRef],
) -> Vec<String> {
    let cells = spec.cells();
    if outcomes.len() != cells.len() {
        return vec![format!(
            "{} cells reported, {} expected",
            outcomes.len(),
            cells.len()
        )];
    }
    let mut wrong = Vec::new();
    for (i, (o, (bench, layer, defense))) in outcomes.iter().zip(&cells).enumerate() {
        let s = &o.scores;
        let mut why = Vec::new();
        if o.benchmark != bench.name() || o.split_layer != layer.0 || o.defense.kind != defense.kind
        {
            why.push("cell out of order".to_string());
        }
        let ccrs = [
            Some(s.dl_ccr),
            s.flow_ccr,
            Some(s.proximity_ccr),
            Some(s.chance_ccr),
            Some(s.recovery),
        ];
        if ccrs.iter().flatten().any(|v| !(0.0..=1.0).contains(v)) {
            why.push("a score outside [0, 1]".to_string());
        }
        if let Some(r) = refs.iter().find(|r| r.benchmark == o.benchmark) {
            if o.defense.base_wirelength != r.wirelength {
                why.push(format!(
                    "base wirelength {} ≠ {}",
                    o.defense.base_wirelength, r.wirelength
                ));
            }
            let baseline = defense.kind == DefenseKind::None;
            if baseline
                && (s.sink_fragments, s.source_fragments) != (r.sink_fragments, r.source_fragments)
            {
                why.push(format!(
                    "#Sk/#Sc {}/{} ≠ {}/{}",
                    s.sink_fragments, s.source_fragments, r.sink_fragments, r.source_fragments
                ));
            }
            if baseline && o.defense.defended_wirelength != r.wirelength {
                why.push("the baseline changed the layout".to_string());
            }
        }
        if !why.is_empty() {
            wrong.push(format!(
                "cell {i} ({} {}): {}",
                o.benchmark,
                defense.kind.name(),
                why.join("; ")
            ));
        }
    }
    wrong
}

/// One timed `deepsplit_engine::run` call.
pub fn engine_run(
    spec: &SweepConfig,
    store: &DiskModelStore,
    record_timings: bool,
) -> Result<(MatrixRun, f64), String> {
    let config = EngineConfig {
        record_timings,
        ..EngineConfig::new(spec.clone())
    };
    let started = Instant::now();
    let run = deepsplit_engine::run(&config, store).map_err(|e| e.to_string())?;
    Ok((run, started.elapsed().as_secs_f64()))
}

fn open_store(dir: &Path) -> Result<DiskModelStore, String> {
    DiskModelStore::open(dir).map_err(|e| format!("open store {}: {e}", dir.display()))
}

/// Set-up of `sweep_warm`: fills a disk store by sweeping the cold matrix
/// into it, and keeps that sweep's cells as the reference the warm run's
/// c432 rows must equal.
pub struct WarmStore {
    /// The store directory.
    pub dir: std::path::PathBuf,
    /// The filling sweep's cells.
    pub cold_cells: Vec<EvalOutcome>,
}

/// Fills `dir` for `sweep_warm` at `seed`.
pub fn fill_warm_store(seed: u64, dir: &Path) -> Result<WarmStore, String> {
    let store = open_store(dir)?;
    let (run, _) = engine_run(&cold_spec(seed), &store, false)?;
    Ok(WarmStore {
        dir: dir.to_path_buf(),
        cold_cells: run.outcomes(),
    })
}

/// The warm-run invariants beyond [`check_cells`]: zero training, one store
/// hit per distinct fingerprint, and c432 rows bit-equal to the cold sweep
/// that filled the store.
pub fn check_warm(spec: &SweepConfig, run: &MatrixRun, cold_cells: &[EvalOutcome]) -> Vec<String> {
    let mut wrong = Vec::new();
    let s = &run.stats;
    let fingerprints = cold_spec(0).cells().len();
    if s.models_trained != 0 || s.epochs_trained != 0 {
        wrong.push(format!(
            "warm run trained {} models ({} epochs)",
            s.models_trained, s.epochs_trained
        ));
    }
    if s.store.hits != fingerprints || s.store.misses != 0 {
        wrong.push(format!(
            "store {} hits / {} misses, expected {fingerprints} / 0",
            s.store.hits, s.store.misses
        ));
    }
    let c432: Vec<EvalOutcome> = run
        .outcomes()
        .into_iter()
        .filter(|o| o.benchmark == Benchmark::C432.name())
        .collect();
    if c432 != cold_cells {
        wrong.push("c432 rows differ from the cold sweep that filled the store".to_string());
    }
    if spec.cells().len() != run.cells.len() {
        wrong.push("cell count".to_string());
    }
    wrong
}

/// The golden comparison. Every seed sweeps the golden cells, so the cells
/// must equal the golden ones in any order; at the default seed the report
/// must also equal the committed artifact byte for byte.
pub fn check_golden(seed: u64, outcomes: Vec<EvalOutcome>) -> Option<String> {
    let golden = match std::fs::read_to_string(GOLDEN) {
        Ok(g) => g,
        Err(e) => return Some(format!("read {GOLDEN}: {e}")),
    };
    if seed == crate::DEFAULT_SEED {
        return match MatrixReport::new(outcomes).to_json() {
            Ok(json) if json == golden => None,
            Ok(_) => Some(format!("report differs from {GOLDEN}")),
            Err(e) => Some(format!("serialise report: {e}")),
        };
    }
    let mut expected = match MatrixReport::from_json(&golden) {
        Ok(report) => report.results,
        Err(e) => return Some(format!("parse {GOLDEN}: {e}")),
    };
    let mut got = outcomes;
    for cells in [&mut expected, &mut got] {
        cells.sort_by(|a, b| {
            (&a.benchmark, a.defense.kind.name()).cmp(&(&b.benchmark, b.defense.kind.name()))
        });
    }
    (got != expected).then(|| format!("cells differ from those of {GOLDEN}"))
}

/// Whole `engine::run` calls until `seconds` have passed; returns each
/// call's wall time.
fn repeat<F>(seconds: f64, mut call: F) -> Result<Vec<f64>, String>
where
    F: FnMut(usize) -> Result<f64, String>,
{
    let started = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        walls.push(call(walls.len())?);
    }
    Ok(walls)
}

fn summarize(outcome: &mut Outcome, walls: &[f64], cells: usize, dl_ccrs: &[f64]) {
    let median = crate::stats::median(walls);
    outcome.throughput = cells as f64 / median;
    outcome.p50_ms = 1000.0 * median;
    outcome.tail_ms = 1000.0 * walls.iter().copied().fold(0.0, f64::max);
    outcome.dl_ccr_pct = 100.0 * dl_ccrs.iter().sum::<f64>() / dl_ccrs.len().max(1) as f64;
    eprintln!(
        "{} engine::run call(s) of {:.3?} s: median {:.3} s, {:.4} cells/s",
        walls.len(),
        walls,
        median,
        outcome.throughput
    );
}

/// `sweep_cold`: every call sweeps the golden matrix into a new, empty disk
/// store, so every cell trains its model.
pub fn run_cold(seed: u64, seconds: f64, scratch: &Scratch) -> Outcome {
    let spec = cold_spec(seed);
    let (refs, setup_s) = crate::stats::timed_on_both_cores(|| victim_refs(&spec));
    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut problems = Vec::new();
    let mut dl_ccrs = Vec::new();
    let walls = repeat(seconds, |i| {
        let store = open_store(&scratch.dir(&format!("cold-{i}")))?;
        let (run, wall) = engine_run(&spec, &store, false)?;
        if i == 0 {
            outcome.peak_rss_mb = crate::peak_rss_mb();
        }
        let outcomes = run.outcomes();
        outcome.attempted += outcomes.len();
        let mut wrong = check_cells(&spec, &outcomes, &refs);
        if run.stats.models_trained != spec.cells().len() {
            wrong.push(format!("trained {} models", run.stats.models_trained));
        }
        dl_ccrs.extend(outcomes.iter().map(|o| o.scores.dl_ccr));
        if let Some(why) = check_golden(seed, outcomes) {
            wrong.push(why);
        }
        outcome.failed += wrong.len().min(spec.cells().len());
        problems.extend(wrong);
        Ok(wall)
    });
    match walls {
        Ok(walls) => summarize(&mut outcome, &walls, spec.cells().len(), &dl_ccrs),
        Err(why) => return Outcome::broken(why),
    }
    for p in &problems {
        eprintln!("wrong: {p}");
    }
    outcome
}

/// `sweep_warm`: the 15-cell matrix against the store filled in set-up;
/// every call loads its three models and trains nothing.
pub fn run_warm(seed: u64, seconds: f64, scratch: &Scratch) -> Outcome {
    let spec = warm_spec(seed);
    // Filling the store takes seconds, so this set-up runs once.
    let started = Instant::now();
    let (filled, refs) = match fill_warm_store(seed, &scratch.dir("warm-store")) {
        Ok(filled) => (filled, victim_refs(&spec)),
        Err(why) => return Outcome::broken(why),
    };
    let setup_s = started.elapsed().as_secs_f64();
    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut problems = check_golden(seed, filled.cold_cells.clone())
        .into_iter()
        .collect::<Vec<_>>();
    let mut dl_ccrs = Vec::new();
    let walls = repeat(seconds, |i| {
        let store = open_store(&filled.dir)?;
        let (run, wall) = engine_run(&spec, &store, false)?;
        if i == 0 {
            outcome.peak_rss_mb = crate::peak_rss_mb();
        }
        let outcomes = run.outcomes();
        outcome.attempted += outcomes.len();
        let mut wrong = check_cells(&spec, &outcomes, &refs);
        wrong.extend(check_warm(&spec, &run, &filled.cold_cells));
        dl_ccrs.extend(outcomes.iter().map(|o| o.scores.dl_ccr));
        outcome.failed += wrong.len().min(spec.cells().len());
        problems.extend(wrong);
        Ok(wall)
    });
    match walls {
        Ok(walls) => summarize(&mut outcome, &walls, spec.cells().len(), &dl_ccrs),
        Err(why) => return Outcome::broken(why),
    }
    if !problems.is_empty() {
        outcome.failed = outcome.failed.max(1);
    }
    for p in &problems {
        eprintln!("wrong: {p}");
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_seed_keeps_the_golden_order_and_others_permute_it() {
        let golden = cold_spec(crate::DEFAULT_SEED);
        assert_eq!(
            golden.kinds,
            vec![DefenseKind::Lift, DefenseKind::Obfuscate]
        );
        assert!((1..20).any(|s| cold_spec(s).kinds != golden.kinds));
        for seed in 0..20 {
            let mut kinds = cold_spec(seed).kinds;
            assert_eq!(
                kinds,
                cold_spec(seed).kinds,
                "seed {seed} must be reproducible"
            );
            kinds.sort_by_key(|k| k.name());
            assert_eq!(kinds, vec![DefenseKind::Lift, DefenseKind::Obfuscate]);
            assert_eq!(warm_spec(seed).benchmarks, WARM_VICTIMS.to_vec());
        }
    }
}
