//! Order statistics, set-up timing, and the seeded generator every
//! workload draws from.

use std::time::Instant;

/// The tail percentile a sample set supports: the highest one that still
/// leaves at least [`TAIL_BEYOND`] samples beyond it, so a single outlier
/// cannot set it.
pub const TAIL_BEYOND: usize = 10;

/// A tail read-out: which percentile, its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile as a fraction (`0.99` = p99).
    pub quantile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of `values` with at least [`TAIL_BEYOND`] samples
/// strictly beyond it (nearest rank), or `None` with too few samples. With
/// 1 000 samples this is p99; with 200 it is p95.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        quantile: rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `q` quantile of `values`; `NaN` when empty.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// SplitMix64: a tiny, well-mixed, seedable generator. Workload inputs are
/// drawn from it alone, so one seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The median set-up time, given the first set-up's time. A set-up of a
/// second or more ran once: it cannot be repeated within a run. A quicker
/// one is repeated with `again` (which sets up and tears down once; it gets
/// the repetition's index) until there are at least five timings and half a
/// second has been spent, because a single quick timing is mostly noise.
pub fn setup_median(
    first_s: f64,
    mut again: impl FnMut(usize) -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = vec![first_s];
    while first_s < 1.0 && (times.len() < 5 || times.iter().sum::<f64>() < 0.5) {
        let started = Instant::now();
        again(times.len())?;
        times.push(started.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// Times a set-up of a few milliseconds: two threads each repeat `setup`
/// for half a second, and the result is the mean of their median times.
/// The two cores of a shared host can run the same code at different
/// speeds; with one thread on each, the figure no longer depends on which
/// core the scheduler picked.
pub fn timed_on_both_cores<T: Send>(setup: impl Fn() -> T + Sync) -> (T, f64) {
    let per_thread = || {
        let mut times = Vec::new();
        let mut last;
        loop {
            let started = Instant::now();
            last = setup();
            times.push(started.elapsed().as_secs_f64());
            if times.iter().sum::<f64>() >= 0.5 {
                return (last, median(&times));
            }
        }
    };
    let (a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(per_thread);
        let mine = per_thread();
        (mine, other.join().expect("a set-up thread panicked"))
    });
    (a.0, (a.1 + b.1) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values).expect("enough samples");
        assert_eq!(t.samples, 1000);
        assert!((t.quantile - 0.99).abs() < 1e-12);
        assert_eq!(t.value, 990.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);

        let t = tail(&values[..200]).expect("enough samples");
        assert!((t.quantile - 0.95).abs() < 1e-12);
        assert_eq!(t.value, 190.0);
        assert!(tail(&values[..10]).is_none());
    }

    #[test]
    fn median_uses_the_sorted_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&values, 0.99), 198.0);
        assert_eq!(nearest_rank(&values, 0.5), 100.0);
        assert_eq!(nearest_rank(&values, 0.0), 1.0);
        assert!(nearest_rank(&[], 0.5).is_nan());
    }

    #[test]
    fn splitmix_is_a_pure_function_of_its_seed() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(7);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let mut g = SplitMix64::new(7);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| (0.0..1.0).contains(&g.next_f64())));
    }
}
