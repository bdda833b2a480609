//! Open-loop load generation.
//!
//! Independent adversary clients send on their own schedule, not when the
//! previous answer arrives, so the generator is open-loop: every request has
//! a due time fixed before the run starts, and its latency is charged from
//! that due time. A request that could not leave on time, because every
//! connection was busy behind a slow answer, is charged the wait; `lag`
//! records how late it actually left.

use crate::stats::SplitMix64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Due times (offsets from the start of the run) of `count` arrivals at a
/// mean `rate` per second. Gaps are the mean gap scaled by a uniform draw
/// from `[0.5, 1.5)`: the rate is exact on average, arrivals still bunch and
/// spread, and the worst burst stays bounded, so the tail reflects the
/// server rather than the luck of an exponential draw.
pub fn schedule(seed: u64, rate: f64, count: usize) -> Vec<Duration> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let mean_gap = 1.0 / rate;
    let mut at = 0.0;
    (0..count)
        .map(|_| {
            at += mean_gap * (0.5 + rng.next_f64());
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// One request's timing, in milliseconds from its due time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index into the schedule.
    pub index: usize,
    /// Due time to completion: what the request's client waited.
    pub latency_ms: f64,
    /// Due time to the moment the request actually left.
    pub lag_ms: f64,
}

/// Sends every scheduled request through `send` from `connections`
/// generator threads (one outstanding request each) and returns the samples
/// in schedule order. A thread picks the next request in due order, sleeps
/// until it is due, and sends it; if it picks it up late, the lateness is
/// part of the request's latency. `check` takes each answer after its
/// completion time is taken, so checking costs the client, not the latency.
pub fn open_loop<R, S, C>(due: &[Duration], connections: usize, send: S, check: C) -> Vec<Sample>
where
    S: Fn(usize) -> R + Sync,
    C: Fn(usize, R) + Sync,
{
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(due.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..connections.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(&offset) = due.get(index) else {
                    break;
                };
                let due_at = start + offset;
                if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let answer = send(index);
                let done = Instant::now();
                check(index, answer);
                let sample = Sample {
                    index,
                    latency_ms: ms(done.saturating_duration_since(due_at)),
                    lag_ms: ms(sent.saturating_duration_since(due_at)),
                };
                samples
                    .lock()
                    .expect("a generator thread panicked while recording")
                    .push(sample);
            });
        }
    });
    let mut samples = samples
        .into_inner()
        .expect("a generator thread panicked while recording");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Sends requests from `connections` closed-loop clients, each sending its
/// next request as soon as the previous answer arrives, until `duration`
/// has passed. Returns the completion times (seconds from the start,
/// sorted) and the number of successes.
pub fn closed_loop<H>(duration: Duration, connections: usize, handler: H) -> (Vec<f64>, usize)
where
    H: Fn(usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let ok = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..connections.max(1) {
            scope.spawn(|| {
                while start.elapsed() < duration {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if handler(index) {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    let at = start.elapsed().as_secs_f64();
                    done.lock()
                        .expect("a generator thread panicked while recording")
                        .push(at);
                }
            });
        }
    });
    let mut done = done
        .into_inner()
        .expect("a generator thread panicked while recording");
    done.sort_by(f64::total_cmp);
    (done, ok.into_inner())
}

/// Completion rate (per second) as the median over `chunks` consecutive
/// runs of completions, so a stall in one stretch moves the rate no more
/// than one chunk's worth.
pub fn chunked_rate(done: &[f64], chunks: usize) -> f64 {
    let chunks = chunks.clamp(1, done.len().max(1));
    let mut rates = Vec::with_capacity(chunks);
    let mut from = (0, 0.0);
    for k in 1..=chunks {
        let to = k * done.len() / chunks;
        if to == from.0 {
            continue;
        }
        let t = done[to - 1];
        rates.push((to - from.0) as f64 / (t - from.1).max(1e-9));
        from = (to, t);
    }
    crate::stats::median(&rates)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_keeps_its_mean_rate() {
        let a = schedule(3, 20.0, 400);
        assert_eq!(a, schedule(3, 20.0, 400));
        assert_ne!(a, schedule(4, 20.0, 400));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let span = a.last().expect("arrivals").as_secs_f64();
        assert!(
            (span - 20.0).abs() < 1.0,
            "400 arrivals at 20/s span {span} s"
        );
        for w in a.windows(2) {
            let gap = (w[1] - w[0]).as_secs_f64();
            assert!(
                (0.025..0.075).contains(&gap),
                "gap {gap} outside [0.5, 1.5) × 50 ms"
            );
        }
    }

    /// A fake handler stalls on the first request only. Requests due during
    /// the stall cannot leave (the single connection is busy), and each must
    /// be charged its wait from its own due time, not from when it left.
    #[test]
    fn requests_queued_behind_a_stall_are_charged_their_wait() {
        let stall = Duration::from_millis(300);
        let due: Vec<Duration> = (0..20).map(|i| Duration::from_millis(10 * i)).collect();
        let samples = open_loop(
            &due,
            1,
            |i| {
                if i == 0 {
                    std::thread::sleep(stall);
                }
            },
            |_, ()| {},
        );
        assert_eq!(samples.len(), 20);
        assert!(samples[0].latency_ms >= 300.0);
        for s in &samples[1..] {
            // Due at 10·i ms, sent once the stall ended at ≥300 ms.
            let waited = 300.0 - 10.0 * s.index as f64;
            assert!(
                s.latency_ms >= waited - 1.0 && s.lag_ms >= waited - 1.0,
                "request {} waited ≥{waited} ms behind the stall but was charged {} ms (lag {})",
                s.index,
                s.latency_ms,
                s.lag_ms
            );
            assert!(
                s.latency_ms - s.lag_ms < 50.0,
                "the fake handler itself is instant"
            );
        }
    }

    #[test]
    fn an_idle_generator_sends_on_time() {
        let due: Vec<Duration> = (0..10).map(|i| Duration::from_millis(5 * i)).collect();
        let samples = open_loop(&due, 2, |_| (), |_, ()| {});
        assert!(samples.iter().all(|s| s.lag_ms < 20.0), "{samples:?}");
    }

    #[test]
    fn closed_loop_runs_for_its_duration_and_counts_every_request() {
        let (done, ok) = closed_loop(Duration::from_millis(200), 2, |i| {
            std::thread::sleep(Duration::from_millis(10));
            i % 5 != 0
        });
        // Two clients, 10 ms per request, for 200 ms.
        assert!((20..=42).contains(&done.len()), "{} requests", done.len());
        assert!(ok < done.len() && ok >= done.len() * 3 / 4);
        assert!(done.windows(2).all(|w| w[0] <= w[1]));
        assert!(done.last().is_some_and(|&t| (0.2..0.5).contains(&t)));
    }

    #[test]
    fn chunked_rate_ignores_one_stalled_stretch() {
        // 10 completions per second, except that the second of four
        // stretches stalls for two extra seconds.
        let mut done: Vec<f64> = (1..=40).map(|i| f64::from(i) / 10.0).collect();
        for t in &mut done[10..] {
            *t += 2.0;
        }
        let rate = chunked_rate(&done, 4);
        assert!((rate - 10.0).abs() < 1e-9, "rate {rate}");
        assert!(
            40.0 / done[39] < 7.0,
            "the plain mean would be dragged down"
        );
    }
}
