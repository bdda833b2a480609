//! The traced run: per-layer metrics.
//!
//! End-to-end runs keep tracing off. A traced run first repeats the
//! workload untraced, then installs the `deepsplit_obs` recorder and repeats
//! it traced (the difference is the tracing overhead), then replays the
//! workload's public calls one by one, each inside a benchmark span. The
//! replay must reproduce the untraced outputs exactly, so the split it gives
//! describes the same work. Layer times are per unit of work: per sweep on
//! `sweep_*`, per request on `attack_*`.

use crate::attack::{self, Mix, Rig};
use crate::sweep;
use crate::trace::{self, SpanTime};
use crate::{loadgen, stats, Metrics, Scratch};
use deepsplit_core::attack::{attack_ranked, attack_with_threads};
use deepsplit_core::fingerprint::CorpusFingerprint;
use deepsplit_core::store::{DiskModelStore, ModelStore, StoreCounters};
use deepsplit_core::{functional_recovery, PreparedDesign, TrainedAttack};
use deepsplit_defense::eval::{
    corpus_fingerprint, AttackScores, EvalBase, EvalConfig, EvalOutcome,
};
use deepsplit_defense::service::{
    canonical_train_eval, expected_ccr, rankings_of, AttackRequest, AttackResponse,
};
use deepsplit_defense::sweep::SweepConfig;
use deepsplit_defense::{DefendedDesign, DefenseConfig};
use deepsplit_flow::attack::{network_flow_attack, FlowOutcome};
use deepsplit_flow::metrics::ccr;
use deepsplit_flow::proximity::proximity_attack;
use deepsplit_layout::design::{Design, ImplementConfig};
use deepsplit_layout::geom::Layer;
use deepsplit_obs as obs;
use deepsplit_serve::detect::{fingerprint_id, response_ids, Action, Detector};
use deepsplit_serve::ModelLru;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Trace buffer slots: room for the program's own spans of a traced run
/// plus the replay's.
const TRACE_CAPACITY: usize = 1 << 18;

/// Every per-layer metric with its unit, in print order. Layers a workload
/// does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped_events", "count"),
    ("replay.units", "count"),
    ("replay.ms", "ms"),
    ("share.layout_pct", "%"),
    ("share.train_pct", "%"),
    ("share.defense_pct", "%"),
    ("share.features_pct", "%"),
    ("share.infer_pct", "%"),
    ("share.flow_pct", "%"),
    ("share.recover_pct", "%"),
    ("share.store_pct", "%"),
    ("share.serve_pct", "%"),
    ("share.detect_pct", "%"),
    ("share.json_pct", "%"),
    ("share.other_pct", "%"),
    ("train.ms", "ms"),
    ("train.models", "count"),
    ("train.epochs", "count"),
    ("train.query_steps", "count"),
    ("train.us_per_query_step", "us"),
    ("infer.ms", "ms"),
    ("infer.queries", "count"),
    ("infer.us_per_query", "us"),
    ("serve.inference_ms_p50", "ms"),
    ("flow.mcmf_ms", "ms"),
    ("flow.timeouts", "count"),
    ("flow.proximity_ms", "ms"),
    ("features.prepare_ms", "ms"),
    ("features.queries", "count"),
    ("features.candidates", "count"),
    ("defense.apply_ms", "ms"),
    ("defense.apply_calls", "count"),
    ("layout.implement_ms", "ms"),
    ("layout.designs", "count"),
    ("recover.ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.saves", "count"),
    ("store.load_ms", "ms"),
    ("store.read_ms", "ms"),
    ("store.parse_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.blob_bytes", "B"),
    ("engine.models_trained", "count"),
    ("engine.epochs_trained", "count"),
    ("engine.corpus_ms", "ms"),
    ("engine.train_ms", "ms"),
    ("engine.attack_ms", "ms"),
    ("serve.lru_hit_ratio", "ratio"),
    ("serve.lru_evictions", "count"),
    ("serve.coalesced", "count"),
    ("serve.resolve_ms_p50", "ms"),
    ("serve.attack_p50_ms", "ms"),
    ("serve.attack_p99_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("detect.admit_us", "us"),
    ("detect.windows_scored", "count"),
    ("json.request_parse_us", "us"),
    ("json.response_ms", "ms"),
    ("json.response_bytes", "B"),
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.failed", "count"),
    ("loadgen.lag_tail_ms", "ms"),
];

/// Span group → the share it counts toward. A span's group is the segment
/// after `bench.`; the replay root's self time is `other`.
const SHARES: &[(&str, &str)] = &[
    ("layout", "share.layout_pct"),
    ("train", "share.train_pct"),
    ("defense", "share.defense_pct"),
    ("features", "share.features_pct"),
    ("infer", "share.infer_pct"),
    ("flow", "share.flow_pct"),
    ("recover", "share.recover_pct"),
    ("store", "share.store_pct"),
    ("serve", "share.serve_pct"),
    ("detect", "share.detect_pct"),
    ("json", "share.json_pct"),
    ("replay", "share.other_pct"),
];

/// The read-out of a traced run.
pub struct Traced {
    /// Whether every check passed.
    pub correct: bool,
    /// Units of work attempted across the run.
    pub attempted: usize,
    /// Units that failed or produced a wrong output.
    pub failed: usize,
    /// Every [`PER_LAYER`] metric.
    pub metrics: Metrics,
}

/// Counts the replay takes at the layer boundaries.
#[derive(Debug, Default)]
struct Counts {
    train_models: u64,
    train_epochs: u64,
    query_steps: u64,
    infer_queries: u64,
    prepared_queries: u64,
    candidates: u64,
    apply_calls: u64,
    designs: u64,
    flow_timeouts: u64,
    response_bytes: u64,
}

/// A disk store that times its loads and saves in benchmark spans, with
/// the file read and the model parse apart.
struct TracedStore {
    inner: DiskModelStore,
    loaded_bytes: AtomicU64,
    loads: AtomicU64,
}

impl TracedStore {
    fn open(dir: &Path) -> Result<TracedStore, String> {
        Ok(TracedStore {
            inner: DiskModelStore::open(dir).map_err(|e| format!("open store: {e}"))?,
            loaded_bytes: AtomicU64::new(0),
            loads: AtomicU64::new(0),
        })
    }
}

impl ModelStore for TracedStore {
    fn load(&self, key: &CorpusFingerprint) -> Option<TrainedAttack> {
        let _span = obs::span("bench.store.load");
        let json = {
            let _span = obs::span("bench.store.read");
            self.inner.load_json(key)
        }?;
        self.loaded_bytes
            .fetch_add(json.len() as u64, Ordering::Relaxed);
        self.loads.fetch_add(1, Ordering::Relaxed);
        let _span = obs::span("bench.store.parse");
        TrainedAttack::from_json(&json).ok()
    }

    fn save(&self, key: &CorpusFingerprint, model: &TrainedAttack) {
        let _span = obs::span("bench.store.save");
        self.inner.save(key, model);
    }

    fn counters(&self) -> StoreCounters {
        self.inner.counters()
    }
}

fn apply(
    design: &Design,
    implement: &ImplementConfig,
    layer: Layer,
    defense: &DefenseConfig,
    c: &mut Counts,
) -> DefendedDesign {
    let _span = obs::span("bench.defense.apply");
    c.apply_calls += 1;
    deepsplit_defense::apply(design, implement, layer, defense)
}

fn prepare(design: &Design, layer: Layer, cfg: &EvalConfig, c: &mut Counts) -> PreparedDesign {
    let prepared = {
        let _span = obs::span("bench.features.prepare");
        PreparedDesign::prepare(design, layer, &cfg.attack)
    };
    c.prepared_queries += prepared.num_queries() as u64;
    c.candidates += prepared
        .sets
        .iter()
        .map(|s| s.candidates.len() as u64)
        .sum::<u64>();
    prepared
}

fn build_base(
    bench: deepsplit_netlist::benchmarks::Benchmark,
    cfg: &EvalConfig,
    c: &mut Counts,
) -> EvalBase {
    let _span = obs::span("bench.layout.implement");
    let base = EvalBase::build(bench, cfg);
    c.designs += 1 + base.corpus.len() as u64;
    base
}

/// `defense::eval::defended_corpus`, call by call.
fn defended_corpus(
    base: &EvalBase,
    layer: Layer,
    defense: &DefenseConfig,
    cfg: &EvalConfig,
    c: &mut Counts,
) -> Vec<PreparedDesign> {
    let _span = obs::span("bench.train.corpus");
    base.corpus
        .iter()
        .map(|d| {
            let defended = apply(d, &cfg.implement, layer, defense, c);
            let mut p = prepare(&defended.design, layer, cfg, c);
            p.truncate_queries(cfg.train_query_cap, cfg.train_seed);
            p
        })
        .collect()
}

/// `core::train::train_or_load` inside a span, counting what it trained.
fn train_or_load(
    fp: &CorpusFingerprint,
    store: &TracedStore,
    base: &EvalBase,
    layer: Layer,
    defense: &DefenseConfig,
    train_eval: &EvalConfig,
    c: &mut Counts,
) -> TrainedAttack {
    let _span = obs::span("bench.train");
    let (model, report) = deepsplit_core::train_or_load(fp, store, &train_eval.attack, || {
        defended_corpus(base, layer, defense, train_eval, c)
    });
    if let Some(r) = report {
        c.train_models += 1;
        c.train_epochs += r.epoch_loss.len() as u64;
        c.query_steps += (r.epoch_loss.len() * r.trainable_queries) as u64;
    }
    model
}

/// `defense::eval::attack_cell`, call by call.
fn attack_cell(
    base: &EvalBase,
    layer: Layer,
    defense: &DefenseConfig,
    cfg: &EvalConfig,
    trained: &TrainedAttack,
    c: &mut Counts,
) -> EvalOutcome {
    let defended = apply(&base.victim, &cfg.implement, layer, defense, c);
    let victim = prepare(&defended.design, layer, cfg, c);
    let outcome = {
        let _span = obs::span("bench.infer");
        attack_with_threads(trained, &victim, 1)
    };
    c.infer_queries += victim.num_queries() as u64;
    let dl_ccr = ccr(&victim.view, &outcome.assignment);
    let proximity_ccr = {
        let _span = obs::span("bench.flow.proximity");
        ccr(&victim.view, &proximity_attack(&victim.view))
    };
    let flow = {
        let _span = obs::span("bench.flow.mcmf");
        network_flow_attack(
            &victim.view,
            &defended.design.netlist,
            &defended.design.library,
            &cfg.flow,
        )
    };
    let flow_ccr = match flow {
        FlowOutcome::Completed(a) => Some(ccr(&victim.view, &a)),
        FlowOutcome::TimedOut => {
            c.flow_timeouts += 1;
            None
        }
    };
    let recovery = {
        let _span = obs::span("bench.recover");
        functional_recovery(
            &defended.design,
            &victim.view,
            &outcome.assignment,
            cfg.recovery_rounds,
            cfg.victim_seed,
        )
    };
    EvalOutcome {
        benchmark: base.benchmark.name().to_string(),
        split_layer: layer.0,
        defense: defended.stats,
        scores: AttackScores {
            sink_fragments: victim.view.num_sink_fragments(),
            source_fragments: victim.view.num_source_fragments(),
            dl_ccr,
            flow_ccr,
            proximity_ccr,
            chance_ccr: 1.0 / victim.view.num_source_fragments().max(1) as f64,
            recovery,
        },
    }
}

/// `deepsplit_engine::run`, step by step in its order: one base per
/// benchmark, one model per distinct fingerprint, then every cell.
fn replay_sweep(spec: &SweepConfig, store: &TracedStore, c: &mut Counts) -> Vec<EvalOutcome> {
    let _root = obs::span("bench.replay");
    let cells = spec.cells();
    let train_eval = canonical_train_eval(&spec.eval);
    let mut bases: Vec<EvalBase> = Vec::new();
    for (bench, _, _) in &cells {
        if !bases.iter().any(|b| b.benchmark == *bench) {
            bases.push(build_base(*bench, &spec.eval, c));
        }
    }
    let base_of = |bench| {
        bases
            .iter()
            .find(|b| b.benchmark == bench)
            .expect("a base for every benchmark of the matrix")
    };
    let mut models: Vec<(CorpusFingerprint, TrainedAttack)> = Vec::new();
    for (bench, layer, defense) in &cells {
        let fp = corpus_fingerprint(*bench, *layer, defense, &train_eval);
        if !models.iter().any(|(seen, _)| *seen == fp) {
            let model = train_or_load(&fp, store, base_of(*bench), *layer, defense, &train_eval, c);
            models.push((fp, model));
        }
    }
    cells
        .iter()
        .map(|(bench, layer, defense)| {
            let fp = corpus_fingerprint(*bench, *layer, defense, &train_eval);
            let model = &models
                .iter()
                .find(|(seen, _)| *seen == fp)
                .expect("a model for every fingerprint of the matrix")
                .1;
            attack_cell(base_of(*bench), *layer, defense, &spec.eval, model, c)
        })
        .collect()
}

/// The `/attack` handler's calls for one request body, in its order.
struct Handler<'a> {
    store: &'a TracedStore,
    lru: ModelLru,
    detector: Detector,
    bases: Vec<EvalBase>,
    started: Instant,
}

impl Handler<'_> {
    fn handle(&mut self, body: &[u8], c: &mut Counts) -> Result<AttackResponse, String> {
        let json = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let spec: AttackRequest = {
            let _span = obs::span("bench.json.request_parse");
            serde_json::from_str(json).map_err(|e| e.to_string())?
        };
        spec.validate()?;
        let bench = spec.victim().ok_or("unknown benchmark")?;
        let fp = spec.fingerprint();
        let client = spec.client.clone().unwrap_or_default();
        let decision = {
            let _span = obs::span("bench.detect.admit");
            let tick_us = self.started.elapsed().as_micros() as u64;
            self.detector
                .admit(&client, tick_us, fingerprint_id(&fp.to_hex()))
        };
        if decision.action != Action::Allow {
            return Err("the detector in observe mode refused a request".to_string());
        }
        if !self.bases.iter().any(|b| b.benchmark == bench) {
            let base = build_base(bench, &spec.eval, c);
            self.bases.push(base);
        }
        let base = self
            .bases
            .iter()
            .find(|b| b.benchmark == bench)
            .expect("base built above");
        let layer = spec.layer();
        let resolve_started = Instant::now();
        let model = {
            let _span = obs::span("bench.serve.resolve");
            match self.lru.get(&fp) {
                Some(model) => model,
                None => {
                    let train_eval = canonical_train_eval(&spec.eval);
                    let model = Arc::new(train_or_load(
                        &fp,
                        self.store,
                        base,
                        layer,
                        &spec.defense,
                        &train_eval,
                        c,
                    ));
                    self.lru.put(fp, Arc::clone(&model));
                    model
                }
            }
        };
        let resolve_ms = resolve_started.elapsed().as_secs_f64() * 1000.0;
        let defended = apply(&base.victim, &spec.eval.implement, layer, &spec.defense, c);
        let victim = prepare(&defended.design, layer, &spec.eval, c);
        let ranked = {
            let _span = obs::span("bench.infer");
            attack_ranked(&model, &victim, spec.top_k, 1)
        };
        c.infer_queries += victim.num_queries() as u64;
        let dl_ccr = ccr(&victim.view, &ranked.assignment());
        let rankings = rankings_of(&ranked, &victim.view);
        let total_sink_pins: usize = victim
            .view
            .sinks
            .iter()
            .map(|&s| victim.view.fragment(s).sink_count)
            .sum();
        let proximity_ccr = {
            let _span = obs::span("bench.flow.proximity");
            ccr(&victim.view, &proximity_attack(&victim.view))
        };
        let flow = spec.include_flow.then(|| {
            let _span = obs::span("bench.flow.mcmf");
            network_flow_attack(
                &victim.view,
                &defended.design.netlist,
                &defended.design.library,
                &spec.eval.flow,
            )
        });
        let response = AttackResponse {
            benchmark: spec.benchmark.clone(),
            split_layer: spec.split_layer,
            fingerprint: fp.to_hex(),
            model_cached: true,
            trained_epochs: 0,
            dl_ccr,
            expected_ccr: expected_ccr(&rankings, total_sink_pins),
            chance_ccr: 1.0 / victim.view.num_source_fragments().max(1) as f64,
            proximity_ccr,
            flow,
            inference_ms: ranked.inference.as_secs_f64() * 1000.0,
            resolve_ms,
            rankings,
        };
        {
            let _span = obs::span("bench.detect.enrich");
            let (candidates, sinks) = response_ids(&response);
            self.detector.enrich(&client, &candidates, &sinks);
        }
        let text = {
            let _span = obs::span("bench.json.response");
            serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?
        };
        c.response_bytes += text.len() as u64;
        Ok(response)
    }
}

/// Installs the recorder; `false` if this process already had one.
fn install() -> bool {
    obs::install(TRACE_CAPACITY)
}

fn now_us() -> u64 {
    obs::global().map_or(0, |r| r.now_us())
}

/// Writes the chrome trace next to the run records.
fn write_chrome_trace(workload: &str, seed: u64) {
    let path = Path::new(crate::OUT_DIR).join(format!("trace-{workload}-seed{seed}.json"));
    let written = std::fs::create_dir_all(crate::OUT_DIR)
        .and_then(|()| std::fs::write(&path, obs::export_chrome_trace()));
    match written {
        Ok(()) => eprintln!("chrome trace: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// Span-derived metrics common to both families: per-unit layer times and
/// the shares of the replay's wall time.
fn span_metrics(
    times: &BTreeMap<&'static str, SpanTime>,
    units: f64,
    c: &Counts,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let total_ms = |name: &str| times.get(name).map_or(0.0, |t| t.total_us as f64 / 1000.0) / units;
    let replay_us = times.get("bench.replay").map_or(0, |t| t.total_us) as f64;
    let mut group_us: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, t) in times {
        let group = name
            .strip_prefix(trace::PREFIX)
            .and_then(|rest| rest.split('.').next())
            .unwrap_or("replay");
        *group_us.entry(group).or_default() += t.self_us;
    }
    for (group, metric) in SHARES {
        let us = group_us.get(group).copied().unwrap_or(0) as f64;
        m.insert(metric, 100.0 * us / replay_us.max(1.0));
    }
    let train_self_ms = times
        .get("bench.train")
        .map_or(0.0, |t| t.self_us as f64 / 1000.0)
        / units;
    m.insert("replay.units", units);
    m.insert("replay.ms", replay_us / 1000.0 / units);
    m.insert("train.ms", train_self_ms);
    m.insert("train.models", c.train_models as f64 / units);
    m.insert("train.epochs", c.train_epochs as f64 / units);
    m.insert("train.query_steps", c.query_steps as f64 / units);
    m.insert(
        "train.us_per_query_step",
        if c.query_steps > 0 {
            1000.0 * train_self_ms * units / c.query_steps as f64
        } else {
            0.0
        },
    );
    let infer_ms = total_ms("bench.infer");
    m.insert("infer.ms", infer_ms);
    m.insert("infer.queries", c.infer_queries as f64 / units);
    m.insert(
        "infer.us_per_query",
        if c.infer_queries > 0 {
            1000.0 * infer_ms * units / c.infer_queries as f64
        } else {
            0.0
        },
    );
    m.insert("flow.mcmf_ms", total_ms("bench.flow.mcmf"));
    m.insert("flow.timeouts", c.flow_timeouts as f64 / units);
    m.insert("flow.proximity_ms", total_ms("bench.flow.proximity"));
    m.insert("features.prepare_ms", total_ms("bench.features.prepare"));
    m.insert("features.queries", c.prepared_queries as f64 / units);
    m.insert("features.candidates", c.candidates as f64 / units);
    m.insert("defense.apply_ms", total_ms("bench.defense.apply"));
    m.insert("defense.apply_calls", c.apply_calls as f64 / units);
    m.insert("layout.implement_ms", total_ms("bench.layout.implement"));
    m.insert("layout.designs", c.designs as f64 / units);
    m.insert("recover.ms", total_ms("bench.recover"));
    m.insert("store.load_ms", total_ms("bench.store.load"));
    m.insert("store.read_ms", total_ms("bench.store.read"));
    m.insert("store.parse_ms", total_ms("bench.store.parse"));
    m.insert("store.save_ms", total_ms("bench.store.save"));
    m.insert("detect.admit_us", 1000.0 * total_ms("bench.detect.admit"));
    m.insert(
        "json.request_parse_us",
        1000.0 * total_ms("bench.json.request_parse"),
    );
    m.insert("json.response_ms", total_ms("bench.json.response"));
    m.insert("json.response_bytes", c.response_bytes as f64 / units);
}

/// Store counters since `before`, per unit, and the mean blob size.
fn store_metrics(
    store: &TracedStore,
    before: StoreCounters,
    units: f64,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let after = store.counters();
    m.insert("store.hits", (after.hits - before.hits) as f64 / units);
    m.insert(
        "store.misses",
        (after.misses - before.misses) as f64 / units,
    );
    m.insert("store.saves", (after.saves - before.saves) as f64 / units);
    let loads = store.loads.load(Ordering::Relaxed);
    let blob = if loads > 0 {
        store.loaded_bytes.load(Ordering::Relaxed) as f64 / loads as f64
    } else {
        mean_file_bytes(store.inner.dir())
    };
    m.insert("store.blob_bytes", blob);
}

/// Mean size of the files in a store directory (the blobs a run saved).
fn mean_file_bytes(dir: &Path) -> f64 {
    let sizes: Vec<f64> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|md| md.is_file())
        .map(|md| md.len() as f64)
        .collect();
    sizes.iter().sum::<f64>() / sizes.len().max(1) as f64
}

fn finish(
    m: BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: usize,
    failed: usize,
) -> Traced {
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Traced {
        correct,
        attempted,
        failed,
        metrics,
    }
}

fn broken(why: String) -> Traced {
    eprintln!("perfbench: {why}");
    finish(BTreeMap::new(), false, 1, 1)
}

/// Runs `workload`'s traced run.
pub fn run(workload: &str, seed: u64, seconds: f64, scratch: &Scratch) -> Traced {
    let traced = match workload {
        "sweep_cold" | "sweep_warm" => traced_sweep(workload == "sweep_warm", seed, scratch),
        "attack_hot" => traced_attack(&attack::hot(seed), seed, seconds, scratch),
        _ => traced_attack(&attack::churn(seed), seed, seconds, scratch),
    };
    let traced = traced.unwrap_or_else(broken);
    write_chrome_trace(workload, seed);
    traced
}

fn traced_sweep(warm: bool, seed: u64, scratch: &Scratch) -> Result<Traced, String> {
    let spec = if warm {
        sweep::warm_spec(seed)
    } else {
        sweep::cold_spec(seed)
    };
    let refs = sweep::victim_refs(&spec);
    let filled = warm
        .then(|| sweep::fill_warm_store(seed, &scratch.dir("warm-store")))
        .transpose()?;
    let store_dir = |name: &str| match &filled {
        Some(f) => f.dir.clone(),
        None => scratch.dir(name),
    };
    let open =
        |name: &str| DiskModelStore::open(store_dir(name)).map_err(|e| format!("open store: {e}"));

    let (untraced, wall_untraced) = sweep::engine_run(&spec, &open("untraced")?, false)?;
    let reference = untraced.outcomes();
    let mut wrong = sweep::check_cells(&spec, &reference, &refs);
    if let Some(f) = &filled {
        wrong.extend(sweep::check_warm(&spec, &untraced, &f.cold_cells));
    } else if let Some(why) = sweep::check_golden(seed, reference.clone()) {
        wrong.push(why);
    }

    if !install() {
        return Err("a trace recorder was already installed".to_string());
    }
    let (traced, wall_traced) = sweep::engine_run(&spec, &open("traced")?, true)?;
    if traced.outcomes() != reference {
        wrong.push("the traced engine::run changed the cells".to_string());
    }

    let store = TracedStore::open(&store_dir("replay"))?;
    let mut c = Counts::default();
    let since = now_us();
    let replayed = replay_sweep(&spec, &store, &mut c);
    if replayed != reference {
        wrong.push("the replay changed the cells".to_string());
    }
    let times = trace::self_times(
        &obs::global().map(|r| r.events()).unwrap_or_default(),
        since,
    );

    let mut m = BTreeMap::new();
    span_metrics(&times, 1.0, &c, &mut m);
    store_metrics(&store, StoreCounters::default(), 1.0, &mut m);
    m.insert("trace.overhead_ms", 1000.0 * (wall_traced - wall_untraced));
    m.insert(
        "trace.overhead_pct",
        100.0 * (wall_traced - wall_untraced) / wall_untraced,
    );
    m.insert(
        "trace.dropped_events",
        obs::global().map_or(0, |r| r.dropped()) as f64,
    );
    let s = &traced.stats;
    m.insert("engine.models_trained", s.models_trained as f64);
    m.insert("engine.epochs_trained", s.epochs_trained as f64);
    let phase = |f: fn(&deepsplit_engine::artifacts::CellTimings) -> f64| {
        traced.timings.iter().map(|(_, t)| f(t)).sum::<f64>()
    };
    m.insert("engine.corpus_ms", phase(|t| t.corpus_ms));
    m.insert("engine.train_ms", phase(|t| t.train_ms));
    m.insert("engine.attack_ms", phase(|t| t.attack_ms));

    for why in &wrong {
        eprintln!("wrong: {why}");
    }
    let cells = spec.cells().len();
    Ok(finish(
        m,
        wrong.is_empty(),
        3 * cells,
        wrong.len().min(3 * cells),
    ))
}

fn traced_attack(mix: &Mix, seed: u64, seconds: f64, scratch: &Scratch) -> Result<Traced, String> {
    let rig = Rig::start(mix, &scratch.dir("store"))?;
    let count = attack::open_count(mix, seconds);
    let due = loadgen::schedule(seed, mix.rate, count);
    let untraced = attack::checked_open_loop(&rig, &due);
    if !install() {
        return Err("a trace recorder was already installed".to_string());
    }
    let traced_since = now_us();
    let traced = attack::checked_open_loop(&rig, &due);
    let traced_until = now_us();
    let snapshot = rig.metrics()?;
    let serve = attack::server_config();

    // Replay: one cycle to fill the handler's caches as set-up filled the
    // server's, then enough cycles for at least 24 measured requests.
    let store = TracedStore::open(&rig.store_dir)?;
    let mut handler = Handler {
        store: &store,
        lru: ModelLru::new(serve.lru_capacity),
        detector: Detector::new(serve.detect),
        bases: Vec::new(),
        started: Instant::now(),
    };
    let mut c = Counts::default();
    let specs = mix.specs.len();
    let mut wrong: Vec<String> = Vec::new();
    let mut replay =
        |i: usize, c: &mut Counts, wrong: &mut Vec<String>| match handler.handle(rig.body(i), c) {
            Ok(r) if rig.matches(i, &r) => {}
            Ok(r) => wrong.push(format!(
                "replayed {} differs from its reference",
                r.benchmark
            )),
            Err(why) => wrong.push(format!("replay failed: {why}")),
        };
    for i in 0..specs {
        replay(i, &mut Counts::default(), &mut wrong);
    }
    let counters_before = store.counters();
    let units = specs * 24usize.div_ceil(specs);
    let since = now_us();
    {
        let _root = obs::span("bench.replay");
        for i in 0..units {
            replay(i, &mut c, &mut wrong);
        }
    }
    rig.stop();
    let times = trace::self_times(
        &obs::global().map(|r| r.events()).unwrap_or_default(),
        since,
    );

    let mut m = BTreeMap::new();
    span_metrics(&times, units as f64, &c, &mut m);
    store_metrics(&store, counters_before, units as f64, &mut m);

    let p50 = |c: &attack::Checked| {
        stats::median(&c.samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>())
    };
    let (p50_untraced, p50_traced) = (p50(&untraced), p50(&traced));
    m.insert("trace.overhead_ms", p50_traced - p50_untraced);
    m.insert(
        "trace.overhead_pct",
        100.0 * (p50_traced - p50_untraced) / p50_untraced,
    );
    m.insert(
        "trace.dropped_events",
        obs::global().map_or(0, |r| r.dropped()) as f64,
    );
    let answered = |f: fn(&AttackResponse) -> f64| {
        stats::median(&traced.answers.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
    };
    m.insert("serve.inference_ms_p50", answered(|r| r.inference_ms));
    m.insert("serve.resolve_ms_p50", answered(|r| r.resolve_ms));
    let lru = snapshot.lru;
    m.insert(
        "serve.lru_hit_ratio",
        lru.hits as f64 / (lru.hits + lru.misses).max(1) as f64,
    );
    m.insert("serve.lru_evictions", lru.evictions as f64);
    m.insert("serve.coalesced", snapshot.attacks_coalesced as f64);
    // The server's own view of the traced loop alone: the handler's
    // `serve.attack` span around each request's evaluation, exact to the µs.
    let server_ms: Vec<f64> = obs::global()
        .map(|r| r.events())
        .unwrap_or_default()
        .iter()
        .filter(|e| e.name == "serve.attack" && e.start_us >= traced_since)
        .filter_map(|e| e.dur_us.filter(|d| e.start_us + d <= traced_until))
        .map(|d| d as f64 / 1000.0)
        .collect();
    let server_p50 = stats::median(&server_ms);
    m.insert("serve.attack_p50_ms", server_p50);
    m.insert("serve.attack_p99_ms", stats::nearest_rank(&server_ms, 0.99));
    // The client's time from sending to the answer, minus the evaluation.
    let sent_to_done: Vec<f64> = traced
        .samples
        .iter()
        .map(|s| s.latency_ms - s.lag_ms)
        .collect();
    m.insert("serve.wire_ms", stats::median(&sent_to_done) - server_p50);
    m.insert(
        "detect.windows_scored",
        snapshot.detection.windows_scored as f64,
    );
    let failed_requests = untraced.failures.len() + traced.failures.len();
    m.insert("loadgen.sent", (2 * count) as f64);
    m.insert("loadgen.ok", (2 * count - failed_requests) as f64);
    m.insert("loadgen.failed", failed_requests as f64);
    let lags: Vec<f64> = traced.samples.iter().map(|s| s.lag_ms).collect();
    m.insert(
        "loadgen.lag_tail_ms",
        stats::tail(&lags).map_or(0.0, |t| t.value),
    );

    for why in untraced
        .failures
        .iter()
        .chain(&traced.failures)
        .chain(&wrong)
        .take(5)
    {
        eprintln!("wrong: {why}");
    }
    let attempted = 2 * count + units;
    let failed = failed_requests + wrong.len();
    Ok(finish(m, failed == 0, attempted, failed))
}
