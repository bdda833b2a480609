//! The `POST /attack` workloads: an in-process attack server driven over
//! HTTP by the open-loop generator.

use crate::loadgen::{self, Sample};
use crate::stats::{self, SplitMix64};
use crate::{Outcome, Scratch};
use deepsplit_core::httpc;
use deepsplit_core::store::DiskModelStore;
use deepsplit_core::AttackConfig;
use deepsplit_defense::eval::EvalConfig;
use deepsplit_defense::service::{AttackRequest, AttackResponse};
use deepsplit_defense::{DefenseConfig, DefenseKind};
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_serve::detect::{Countermeasure, DetectConfig};
use deepsplit_serve::{MetricsSnapshot, ServeConfig};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Generator threads, and so open connections: two, like two clients.
pub const CONNECTIONS: usize = 2;
/// Transport timeout of one request.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Share of a run's seconds spent in the open loop; the rest measures
/// closed-loop capacity.
const OPEN_SHARE: f64 = 0.8;

/// One `/attack` traffic mix.
#[derive(Debug, Clone)]
pub struct Mix {
    /// The distinct request bodies, sent round-robin in this order.
    pub specs: Vec<AttackRequest>,
    /// Reference arrival rate of the open loop, requests per second.
    pub rate: f64,
}

/// `attack_server`'s small load-generation protocol: a cold `/attack`
/// trains in seconds, so a workload can train its models during set-up.
pub fn loadgen_eval() -> EvalConfig {
    EvalConfig {
        attack: AttackConfig {
            use_images: false,
            candidates: 8,
            epochs: 4,
            batch_size: 16,
            threads: 2,
            ..AttackConfig::fast()
        },
        scale: 0.4,
        train_benchmarks: vec![Benchmark::C880],
        recovery_rounds: 6,
        train_query_cap: 150,
        ..EvalConfig::fast()
    }
}

fn spec(bench: Benchmark, defense: DefenseConfig) -> AttackRequest {
    AttackRequest {
        eval: loadgen_eval(),
        defense,
        top_k: 0,
        client: Some("perfbench".to_string()),
        ..AttackRequest::fast(bench)
    }
}

/// The default server with the query-stream detector scoring every request
/// in observe mode, which never changes an answer.
pub fn server_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        detect: DetectConfig {
            enabled: true,
            countermeasure: Countermeasure::Observe,
            ..DetectConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// `attack_hot`: the benign victims c432, c1355 and c1908, undefended. They
/// share one training corpus, so one model answers every request from the
/// LRU. The seed picks which victim the cycle starts on. The reference rate
/// is ~30 % of the server's capacity: at 50 % (20 req/s) queueing magnified
/// the host's own speed drift, and the tail swung by ±30 % between runs.
pub fn hot(seed: u64) -> Mix {
    let victims = [Benchmark::C432, Benchmark::C1355, Benchmark::C1908];
    let start = (SplitMix64::new(seed).next_u64() % 3) as usize;
    Mix {
        specs: (0..3)
            .map(|i| spec(victims[(start + i) % 3], DefenseConfig::none()))
            .collect(),
        rate: 12.0,
    }
}

/// Distinct specs of `attack_churn`: more than the LRU holds, so a
/// round-robin over them misses the LRU on every request.
pub const CHURN_SPECS: usize = 24;

/// `attack_churn`: c432 (two specs in three) or c1355 behind lift@0.5,
/// under [`CHURN_SPECS`] defense seeds drawn from the seed — as many
/// distinct models, each resolved from the disk store on every request.
/// A c1355 request takes about three times as long as a c432 one, so in an
/// even mix the median would be the slowest c432 request, a tail in
/// disguise; at 2:1 it sits inside the c432 mode.
pub fn churn(seed: u64) -> Mix {
    let mut rng = SplitMix64::new(seed);
    Mix {
        specs: (0..CHURN_SPECS)
            .map(|i| {
                let bench = [Benchmark::C432, Benchmark::C432, Benchmark::C1355][i % 3];
                let defense = DefenseConfig {
                    kind: DefenseKind::Lift,
                    strength: 0.5,
                    seed: rng.next_u64() % 1_000_000,
                };
                spec(bench, defense)
            })
            .collect(),
        rate: 10.0,
    }
}

/// The fields of a response that must repeat exactly for its spec: all of
/// them but the timings and how the model was obtained.
fn comparable(mut r: AttackResponse) -> AttackResponse {
    r.inference_ms = 0.0;
    r.resolve_ms = 0.0;
    r.model_cached = false;
    r.trained_epochs = 0;
    r
}

/// What one request returned: a 2xx body, or why there was none (a
/// non-2xx status or a transport error).
type Answer = Result<String, String>;

fn post(url: &str, body: &[u8]) -> Answer {
    match httpc::post(url, body, TIMEOUT) {
        Ok(r) if r.is_success() => r
            .body_str()
            .map(str::to_string)
            .map_err(|e| format!("non-UTF-8 body: {e}")),
        Ok(r) => Err(format!("HTTP {}", r.status)),
        Err(e) => Err(e.to_string()),
    }
}

/// A running server with its request bodies and reference answers.
pub struct Rig {
    server: deepsplit_serve::RunningServer,
    url: String,
    bodies: Vec<Vec<u8>>,
    /// The server's disk store.
    pub store_dir: PathBuf,
    /// Reference response per spec, recorded at set-up.
    pub references: Vec<AttackResponse>,
}

impl Rig {
    /// Starts a server over an empty disk store in `dir`, records one
    /// reference answer per spec (which trains every model the mix needs)
    /// and sends one more cycle, checked, so caches and the allocator are in
    /// their steady state before anything is timed.
    pub fn start(mix: &Mix, dir: &std::path::Path) -> Result<Rig, String> {
        let store = DiskModelStore::open(dir).map_err(|e| format!("open store: {e}"))?;
        let server = deepsplit_serve::start(&server_config(), Arc::new(store))
            .map_err(|e| format!("start server: {e}"))?;
        let url = format!("{}/attack", server.url());
        let bodies: Vec<Vec<u8>> = mix
            .specs
            .iter()
            .map(|s| serde_json::to_string(s).map(String::into_bytes))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("serialise spec: {e}"))?;
        let mut references = Vec::with_capacity(bodies.len());
        for (spec, body) in mix.specs.iter().zip(&bodies) {
            let response = post(&url, body)
                .and_then(|json| {
                    serde_json::from_str::<AttackResponse>(&json).map_err(|e| e.to_string())
                })
                .map_err(|why| format!("reference for {}: {why}", spec.benchmark))?;
            if response.fingerprint != spec.fingerprint().to_hex() {
                return Err(format!(
                    "{} answered with model {} instead of {}",
                    spec.benchmark,
                    response.fingerprint,
                    spec.fingerprint().to_hex()
                ));
            }
            references.push(comparable(response));
        }
        let rig = Rig {
            server,
            url,
            bodies,
            store_dir: dir.to_path_buf(),
            references,
        };
        for i in 0..rig.bodies.len() {
            rig.check(i, rig.send(i))
                .map_err(|why| format!("warm-up request {i}: {why}"))?;
        }
        Ok(rig)
    }

    /// The body of request `i` (spec `i mod specs`).
    pub fn body(&self, i: usize) -> &[u8] {
        &self.bodies[i % self.bodies.len()]
    }

    /// Sends request `i`.
    pub fn send(&self, i: usize) -> Answer {
        post(&self.url, self.body(i))
    }

    /// Checks an answer to request `i` against its reference; returns the
    /// parsed response when it matches.
    pub fn check(&self, i: usize, answer: Answer) -> Result<AttackResponse, String> {
        let json = answer?;
        let response: AttackResponse =
            serde_json::from_str(&json).map_err(|e| format!("unparsable answer: {e}"))?;
        if !self.matches(i, &response) {
            return Err(format!(
                "answer for {} differs from its reference",
                response.benchmark
            ));
        }
        Ok(response)
    }

    /// Whether `response` equals the reference for request `i` on every
    /// field but the timings and how the model was obtained.
    pub fn matches(&self, i: usize, response: &AttackResponse) -> bool {
        comparable(response.clone()) == self.references[i % self.references.len()]
    }

    /// The server's own metrics, as `GET /metrics` serves them.
    pub fn metrics(&self) -> Result<MetricsSnapshot, String> {
        let r = httpc::get(&format!("{}/metrics", self.server.url()), TIMEOUT)
            .map_err(|e| e.to_string())?;
        let body = r.body_str().map_err(|e| e.to_string())?;
        serde_json::from_str(body).map_err(|e| format!("unparsable /metrics: {e}"))
    }

    /// Stops the server and joins its threads.
    pub fn stop(self) {
        self.server.shutdown();
    }
}

/// Requests of the open loop in a run of `seconds`.
pub fn open_count(mix: &Mix, seconds: f64) -> usize {
    ((mix.rate * seconds * OPEN_SHARE).round() as usize).max(1)
}

/// An open loop whose answers were each checked against their reference.
pub struct Checked {
    /// Timing per request, in schedule order.
    pub samples: Vec<Sample>,
    /// Matching answers with their request index, in schedule order.
    pub answers: Vec<(usize, AttackResponse)>,
    /// Why each other request failed.
    pub failures: Vec<String>,
}

/// Sends the scheduled requests open-loop and checks every answer. The
/// check runs after the request's completion time is taken.
pub fn checked_open_loop(rig: &Rig, due: &[Duration]) -> Checked {
    let results = Mutex::new(Vec::with_capacity(due.len()));
    let samples = loadgen::open_loop(
        due,
        CONNECTIONS,
        |i| rig.send(i),
        |i, answer| {
            let result = rig.check(i, answer);
            results
                .lock()
                .expect("a generator thread panicked")
                .push((i, result));
        },
    );
    let mut results = results.into_inner().expect("a generator thread panicked");
    results.sort_by_key(|(i, _)| *i);
    let mut answers = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for (i, result) in results {
        match result {
            Ok(r) => answers.push((i, r)),
            Err(why) => failures.push(format!("request {i}: {why}")),
        }
    }
    Checked {
        samples,
        answers,
        failures,
    }
}

/// Closed-loop capacity over the rest of the run: requests per second from
/// [`CONNECTIONS`] clients (median over four stretches), the requests
/// sent, and the requests that failed. Request indices continue after the
/// open loop's `first` ones.
pub fn capacity(rig: &Rig, seconds: f64, first: usize) -> (f64, usize, usize) {
    let duration = Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE));
    let (done, ok) = loadgen::closed_loop(duration, CONNECTIONS, |i| {
        rig.check(first + i, rig.send(first + i)).is_ok()
    });
    (loadgen::chunked_rate(&done, 4), done.len(), done.len() - ok)
}

/// Mean DL CCR over served answers.
pub fn mean_dl_ccr(answers: &[(usize, AttackResponse)]) -> f64 {
    answers.iter().map(|(_, r)| r.dl_ccr).sum::<f64>() / answers.len().max(1) as f64
}

/// Runs an attack workload untraced and reports its end-to-end metrics.
pub fn run(mix: &Mix, seed: u64, seconds: f64, scratch: &Scratch) -> Outcome {
    let mut outcome = Outcome::default();
    let store_dir = |i: usize| scratch.dir(&format!("store-{i}"));
    let started = Instant::now();
    let rig = match Rig::start(mix, &store_dir(0)) {
        Ok(rig) => rig,
        Err(why) => return Outcome::broken(why),
    };
    let first_setup_s = started.elapsed().as_secs_f64();
    let first = open_count(mix, seconds);
    let open = checked_open_loop(&rig, &loadgen::schedule(seed, mix.rate, first));
    outcome.peak_rss_mb = crate::peak_rss_mb();
    let (capacity_rps, closed, closed_failed) = capacity(&rig, seconds, first);
    let snapshot = rig.metrics();
    rig.stop();
    // Further set-ups only after everything is measured, so that their
    // servers' memory cannot reach the peak-memory reading.
    outcome.setup_s = match stats::setup_median(first_setup_s, |i| {
        Rig::start(mix, &store_dir(i)).map(Rig::stop)
    }) {
        Ok(s) => s,
        Err(why) => return Outcome::broken(why),
    };

    let latencies: Vec<f64> = open.samples.iter().map(|s| s.latency_ms).collect();
    let lags: Vec<f64> = open.samples.iter().map(|s| s.lag_ms).collect();
    let tail = stats::tail(&latencies);
    eprintln!(
        "open loop: {} requests at {} req/s; p50 {:.2} ms, {} ms; lag p50 {:.2} ms, max {:.2} ms; capacity {:.2} req/s",
        open.samples.len(),
        mix.rate,
        stats::median(&latencies),
        tail.map(|t| format!("p{:.1} {:.2} over {} samples", 100.0 * t.quantile, t.value, t.samples))
            .unwrap_or_else(|| "no tail".to_string()),
        stats::median(&lags),
        lags.iter().copied().fold(0.0, f64::max),
        capacity_rps,
    );
    let mut by_victim: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in &open.samples {
        let victim = &mix.specs[s.index % mix.specs.len()].benchmark;
        by_victim.entry(victim).or_default().push(s.latency_ms);
    }
    for (victim, latencies) in &by_victim {
        eprintln!(
            "  {victim}: {} requests, p50 {:.2} ms",
            latencies.len(),
            stats::median(latencies)
        );
    }
    if let Ok(s) = &snapshot {
        eprintln!(
            "server: lru hits {} misses {} evictions {}; store hits {} misses {}; trained {} models",
            s.lru.hits, s.lru.misses, s.lru.evictions, s.store.hits, s.store.misses, s.models_trained
        );
    }
    for why in open.failures.iter().take(5) {
        eprintln!("failed: {why}");
    }
    outcome.attempted = first + closed;
    outcome.failed = open.failures.len() + closed_failed;
    outcome.p50_ms = stats::median(&latencies);
    outcome.tail_ms = tail.map_or(f64::NAN, |t| t.value);
    outcome.throughput = capacity_rps;
    outcome.dl_ccr_pct = 100.0 * mean_dl_ccr(&open.answers);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_cycles_more_models_than_the_lru_holds() {
        let mix = churn(3);
        let mut prints: Vec<String> = mix.specs.iter().map(|s| s.fingerprint().to_hex()).collect();
        prints.sort();
        prints.dedup();
        assert_eq!(prints.len(), CHURN_SPECS);
        assert!(CHURN_SPECS > server_config().lru_capacity);
        let hot = hot(3);
        assert!(hot
            .specs
            .iter()
            .all(|s| s.fingerprint() == hot.specs[0].fingerprint()));
    }
}
