//! The arithmetic the report is built from: seeded submission order,
//! latency summaries, and batch-schedule accounting. Pure functions, so
//! the rules the metrics depend on are unit-tested on their own.

/// SplitMix64: a tiny, well-mixed generator. The benchmark owns its
/// randomness so the order a seed produces never changes with a
/// dependency's version.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `bound` (`bound` > 0).
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// `items` in the submission order `seed` selects (Fisher–Yates).
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
    items
}

/// Fewest samples a percentile must leave above it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The highest whole percentile (50–99) that leaves at least
/// [`TAIL_BEYOND`] samples above it, or `None` when even the median does
/// not (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_BEYOND)
}

/// Nearest-rank percentile of ascending `sorted` (non-empty).
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of `values` (non-empty): the mean of the middle pair when the
/// count is even.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Geometric mean of positive `values` (non-empty), so every problem
/// weighs the same however long it runs.
pub fn geomean(values: &[f64]) -> f64 {
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// One job's place in a batch, in seconds after the batch was submitted
/// (every job is submitted when the batch is).
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    /// When the job's build began.
    pub start: f64,
    /// Job time: from the start of the build to the return of `run`.
    pub job: f64,
}

/// The schedule of one batch run.
pub struct Schedule {
    pub threads: usize,
    pub makespan: f64,
    pub slots: Vec<Slot>,
}

impl Schedule {
    /// Each job's wait between submission and the start of its build.
    pub fn waits(&self) -> Vec<f64> {
        self.slots.iter().map(|s| s.start).collect()
    }

    /// Summed job time.
    pub fn job_s(&self) -> f64 {
        self.slots.iter().map(|s| s.job).sum()
    }

    /// Thread time not spent in any job: threads × makespan − job time.
    pub fn idle_s(&self) -> f64 {
        self.threads as f64 * self.makespan - self.job_s()
    }
}

/// FNV-1a over `bytes`: a stable program-text fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None, "19 problems: not even p50");
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(500), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(percentile(&v, 98), 490.0);
        assert_eq!(percentile(&v, 50), 250.0);
        assert_eq!(percentile(&[7.0], 50), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn geomean_weighs_every_value_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 0.5, 0.5]) - 0.5).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn seeded_order_is_stable_per_seed_and_differs_across_seeds() {
        let ids: Vec<u32> = (0..19).collect();
        let a = shuffled(ids.clone(), 7);
        assert_eq!(a, shuffled(ids.clone(), 7), "one seed, one order");
        assert_ne!(a, shuffled(ids.clone(), 8), "another seed, another order");
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, ids, "a permutation of the input");
    }

    #[test]
    fn wait_and_idle_on_a_synthetic_schedule() {
        // Two threads, four jobs of 3, 1, 1 and 2 s submitted together:
        // thread 0 runs job 0 (0–3); thread 1 runs jobs 1 (0–1), 2 (1–2)
        // and 3 (2–4). Makespan 4 s, 7 s of job time, 1 s idle.
        let schedule = Schedule {
            threads: 2,
            makespan: 4.0,
            slots: vec![
                Slot {
                    start: 0.0,
                    job: 3.0,
                },
                Slot {
                    start: 0.0,
                    job: 1.0,
                },
                Slot {
                    start: 1.0,
                    job: 1.0,
                },
                Slot {
                    start: 2.0,
                    job: 2.0,
                },
            ],
        };
        assert_eq!(schedule.waits(), [0.0, 0.0, 1.0, 2.0]);
        assert_eq!(schedule.job_s(), 7.0);
        assert_eq!(schedule.idle_s(), 1.0);
        let mut waits = schedule.waits();
        waits.sort_by(f64::total_cmp);
        assert_eq!(percentile(&waits, 50), 0.0);
        assert_eq!(waits.last().copied(), Some(2.0));
    }

    #[test]
    fn fnv1a_is_the_reference_function() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
