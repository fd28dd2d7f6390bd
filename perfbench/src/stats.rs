//! The benchmark's own arithmetic: percentiles, the tail-percentile
//! choice, open-loop latency accounting, and the load-ladder verdict.
//! Everything here is pure so the unit tests below can pin it.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentiles a tail figure may be reported at, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank)
}

/// The highest percentile of [`TAIL_LADDER`], at most `cap`, with at
/// least [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer (under 20 samples).
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| p <= cap && samples_beyond(n, p) >= MIN_BEYOND)
}

/// A tail figure: the value at the chosen percentile (at most `cap`) and
/// which one it was. Falls back to the median (flagged by `p == 50`)
/// when the sample is too small for any percentile to qualify.
pub fn tail(values: &[f64], cap: f64) -> (f64, f64) {
    let p = tail_percentile(values.len(), cap).unwrap_or(50.0);
    (percentile(&sorted(values), p), p)
}

/// A tail figure that one rare stall cannot own: the samples are split
/// into `windows` equal time windows (by their time stamp `at`, seconds),
/// the tail percentile of each window is taken — the highest of
/// [`TAIL_LADDER`] every window can support — and the median over the
/// windows is reported with the percentile used (at most `cap`). With
/// fewer than two windows' worth of samples this is [`tail`] of the
/// whole sample.
pub fn windowed_tail(at: &[f64], values: &[f64], windows: usize, cap: f64) -> (f64, f64) {
    let (lo, hi) = at
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &t| {
            (l.min(t), h.max(t))
        });
    if windows < 2 || values.len() < 2 * 20 || hi <= lo {
        return tail(values, cap);
    }
    let width = (hi - lo) / windows as f64;
    let mut groups: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (&t, &v) in at.iter().zip(values) {
        let w = (((t - lo) / width) as usize).min(windows - 1);
        groups[w].push(v);
    }
    let smallest = groups.iter().map(Vec::len).min().unwrap_or(0);
    let Some(p) = tail_percentile(smallest, cap) else {
        return tail(values, cap);
    };
    let per_window: Vec<f64> = groups.iter().map(|g| percentile(&sorted(g), p)).collect();
    (median(&per_window), p)
}

/// The median over `windows` equal time windows of each window's median
/// ([`windowed_tail`] at p50): a slow stretch of the host that covers
/// fewer than half of the windows does not move it.
pub fn windowed_median(at: &[f64], values: &[f64], windows: usize) -> f64 {
    windowed_tail(at, values, windows, 50.0).0
}

/// Events per second, as the median over `windows` equal windows of
/// `[start, end)` (event times in seconds; events outside are ignored).
pub fn windowed_rate(times: &[f64], start: f64, end: f64, windows: usize) -> f64 {
    if end <= start || windows == 0 {
        return 0.0;
    }
    let width = (end - start) / windows as f64;
    let mut counts = vec![0usize; windows];
    for &t in times {
        if t >= start && t < end {
            counts[(((t - start) / width) as usize).min(windows - 1)] += 1;
        }
    }
    median(&counts.iter().map(|&c| c as f64 / width).collect::<Vec<_>>())
}

/// Open-loop latency: from the instant the request was *due*, not the
/// instant it was sent, so a late generator cannot hide queueing
/// (coordinated omission).
pub fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// How late the generator put a request on the wire.
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Microseconds as `f64`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One rung of the open-loop load ladder, as measured.
#[derive(Clone, Debug, Default)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: u64,
    /// Latencies (µs from due time) of the requests answered correctly.
    pub ok_us: Vec<f64>,
    /// When each of those requests was due, seconds into the rung.
    pub ok_at: Vec<f64>,
    /// Requests that failed: non-200, transport error, refused
    /// connection, timeout, or wrong answer.
    pub failed: usize,
    /// Generator lateness (µs) of every request of the rung.
    pub late_us: Vec<f64>,
    /// Requests still in flight when the rung's last request was sent.
    pub backlog_end: usize,
}

/// What a rung is judged against.
#[derive(Clone, Copy, Debug)]
pub struct RungLimits {
    /// p99 latency limit, µs.
    pub p99_us: f64,
    /// Generator lateness p99 bound, µs: beyond it the rung measured
    /// the generator, not the server.
    pub late_p99_us: f64,
    /// Seconds of arrivals the in-flight count may hold at the end of a
    /// rung before the backlog counts as growing.
    pub backlog_secs: f64,
}

impl Rung {
    /// p99 latency with every failure counted as a miss of any limit
    /// (an infinite latency), so a rung cannot pass by dropping its
    /// slow requests.
    pub fn p99_with_misses(&self) -> f64 {
        let mut all = self.ok_us.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.failed));
        percentile(&sorted(&all), 99.0)
    }

    /// Generator lateness p99, µs.
    pub fn late_p99(&self) -> f64 {
        percentile(&sorted(&self.late_us), 99.0)
    }

    /// Whether the in-flight count at the end of the rung exceeds what
    /// the offered rate keeps in flight within the allowance.
    pub fn backlog_grew(&self, limits: &RungLimits) -> bool {
        let allowed = (self.rate as f64 * limits.backlog_secs).ceil() as usize;
        self.backlog_end > allowed.max(8)
    }

    /// `None` when the rung is met; otherwise why not.
    pub fn verdict(&self, limits: &RungLimits) -> Option<String> {
        if self.failed > 0 {
            return Some(format!("{} failed requests", self.failed));
        }
        let late = self.late_p99();
        if late > limits.late_p99_us {
            return Some(format!(
                "generator late p99 {late:.0}µs > {:.0}µs",
                limits.late_p99_us
            ));
        }
        if self.backlog_grew(limits) {
            return Some(format!("backlog grew to {} in flight", self.backlog_end));
        }
        let p99 = self.p99_with_misses();
        if p99 > limits.p99_us {
            return Some(format!("p99 {p99:.0}µs > {:.0}µs", limits.p99_us));
        }
        None
    }
}

/// The highest met rung's rate; `None` when no rung is met. Rungs are
/// judged independently, in the order given.
pub fn max_met_rate(rungs: &[Rung], limits: &RungLimits) -> Option<u64> {
    rungs
        .iter()
        .filter(|r| r.verdict(limits).is_none())
        .map(|r| r.rate)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(1000, 90.0), Some(90.0));
        // 999 samples: p99 has 9 beyond, p95 has 49.
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        assert_eq!(tail_percentile(200, 99.0), Some(95.0));
        assert_eq!(tail_percentile(199, 99.0), Some(90.0));
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        assert_eq!(tail_percentile(40, 99.0), Some(75.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        // The reported value is the one at the chosen percentile.
        assert_eq!(tail(&ramp(100), 99.0), (90.0, 90.0));
        assert_eq!(tail(&ramp(100), 75.0), (75.0, 75.0));
        assert_eq!(tail(&ramp(5), 99.0), (3.0, 50.0));
    }

    #[test]
    fn windowed_tail_shrugs_off_one_stalled_window() {
        // 4 windows of 1000 samples; window 2 holds a 50ms stall.
        let at: Vec<f64> = (0..4000).map(|i| i as f64 / 1000.0).collect();
        let mut v: Vec<f64> = (0..4000).map(|i| (i % 1000) as f64).collect();
        for x in &mut v[2000..2100] {
            *x = 50_000.0;
        }
        // whole-sample p99 is the stall
        assert_eq!(tail(&v, 99.0), (50_000.0, 99.0));
        // each window's p99 (10 beyond) is 989 except the stalled one
        assert_eq!(windowed_tail(&at, &v, 4, 99.0), (989.0, 99.0));
        assert_eq!(windowed_tail(&at, &v, 4, 90.0), (899.0, 90.0));
        // windows too small for p99 fall back to a lower percentile
        assert_eq!(windowed_tail(&at[..440], &v[..440], 4, 99.0).1, 90.0);
        assert_eq!(
            windowed_tail(&at[..10], &v[..10], 4, 99.0),
            tail(&v[..10], 99.0)
        );
    }

    #[test]
    fn windowed_median_ignores_a_slow_stretch() {
        // 4 windows of 25 samples; the last is 10x slower throughout
        let at: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let v: Vec<f64> = (0..100)
            .map(|i| {
                if i < 75 {
                    100.0 + (i % 25) as f64
                } else {
                    1000.0
                }
            })
            .collect();
        assert_eq!(windowed_median(&at, &v, 4), 112.0);
        assert_eq!(median(&v), 116.0);
    }

    #[test]
    fn windowed_rate_is_a_median_of_windows() {
        // 100/s for 3s with a dead second in the middle
        let mut t: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        t.extend((0..200).map(|i| 2.0 + i as f64 / 200.0));
        assert_eq!(windowed_rate(&t, 0.0, 3.0, 3), 100.0);
        assert_eq!(windowed_rate(&t, 0.0, 0.0, 3), 0.0);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_micros(300);
        let done = sent + Duration::from_micros(50);
        // The server took 50µs, but the request was due 350µs before
        // its answer: the generator's lateness is queueing the client saw.
        assert_eq!(latency_from_due(due, done), Duration::from_micros(350));
        assert_eq!(lateness(due, sent), Duration::from_micros(300));
        // Sending early is never negative lateness.
        assert_eq!(lateness(sent, due), Duration::ZERO);
    }

    const LIMITS: RungLimits = RungLimits {
        p99_us: 2000.0,
        late_p99_us: 500.0,
        backlog_secs: 0.002,
    };

    fn rung(rate: u64, ok: Vec<f64>) -> Rung {
        let n = ok.len();
        Rung {
            rate,
            ok_at: (0..n).map(|i| i as f64 / rate as f64).collect(),
            ok_us: ok,
            failed: 0,
            late_us: vec![10.0; n],
            backlog_end: 0,
        }
    }

    #[test]
    fn failures_and_refusals_count_as_misses() {
        // 1000 fast answers, then 20 refusals: 2% of requests have an
        // infinite latency, so p99 misses any limit.
        let mut r = rung(1000, vec![100.0; 1000]);
        assert_eq!(r.verdict(&LIMITS), None);
        r.failed = 20;
        assert!(r.p99_with_misses().is_infinite());
        assert!(r.verdict(&LIMITS).is_some());
        // Even a single failure fails the rung outright.
        r.failed = 1;
        assert!(r.verdict(&LIMITS).unwrap().contains("failed"));
    }

    #[test]
    fn late_generator_or_growing_backlog_fails_a_rung() {
        let mut late = rung(1000, vec![100.0; 1000]);
        late.late_us = vec![900.0; 1000];
        assert!(late.verdict(&LIMITS).unwrap().contains("late"));

        let mut backlog = rung(10_000, vec![100.0; 1000]);
        backlog.backlog_end = 20; // 10k/s × 2ms = 20 allowed
        assert_eq!(backlog.verdict(&LIMITS), None);
        backlog.backlog_end = 21;
        assert!(backlog.verdict(&LIMITS).unwrap().contains("backlog"));

        let slow = rung(2000, vec![2500.0; 1000]);
        assert!(slow.verdict(&LIMITS).unwrap().contains("p99"));

        let ok = rung(500, vec![100.0; 1000]);
        assert_eq!(
            max_met_rate(&[ok.clone(), slow.clone(), late], &LIMITS),
            Some(500)
        );
        assert_eq!(max_met_rate(&[slow], &LIMITS), None);
    }
}
