//! The benchmark's own statistics: percentiles, quartiles, span self time
//! and the derived queue-wait ratio.

/// The percentile ladder the tail is chosen from, in per-mille.
pub const TAIL_LADDER: [u64; 7] = [500, 750, 900, 950, 990, 995, 999];

/// Minimum number of samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The 1-based nearest rank of the `permille` percentile among `n`
/// samples: the smallest rank with at least that share at or below it.
pub fn nearest_rank(n: usize, permille: u64) -> usize {
    ((permille * n as u64).div_ceil(1000) as usize).max(1)
}

/// The highest ladder percentile (per-mille) that leaves at least
/// [`TAIL_BEYOND`] samples strictly beyond its nearest rank among `n`
/// samples; `None` when even the median does not.  Depends on `n` only, so
/// fixed-length scripts report the same percentile on every run.
pub fn tail_permille(n: usize) -> Option<u64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= nearest_rank(n, p) + TAIL_BEYOND)
}

/// The tail of an unsorted sample: `(percentile in per-mille, value)`.
pub fn tail(samples: &[f64]) -> Option<(u64, f64)> {
    let p = tail_permille(samples.len())?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((p, sorted[nearest_rank(sorted.len(), p) - 1]))
}

/// A per-mille percentile as a label: `p99`, `p99.9`.
pub fn label(permille: u64) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// The median (mean of the middle two for even lengths).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method); needs at least two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as isize;
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i as isize + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (s[(j - 1) as usize], s[j as usize]);
        *q = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// One recorded span: a call into one layer, timed from outside.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Metric name of the layer call (`lattice.build`, `server.parse` …).
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to (its wire id).
    pub request: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one span never overlap: the replay is
/// sequential).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_total = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_total[p] += s.dur();
        }
    }
    spans
        .iter()
        .zip(&child_total)
        .map(|(s, &c)| s.dur().saturating_sub(c))
        .collect()
}

/// Span coverage of the root spans named `root`: the share of their total
/// duration that their direct children account for.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&selfs) {
        if s.parent.is_none() && s.name == root {
            total += s.dur();
            uncovered += own;
        }
    }
    if total == 0 {
        1.0
    } else {
        1.0 - uncovered as f64 / total as f64
    }
}

/// `server.wait_ratio`: the untraced median latency divided by the traced
/// median of the per-request service time (parse + resolve + compute +
/// encode).  The more a request spends outside those calls (queued behind
/// the writer, on the wire, in the serving threads), the further it rises
/// above 1.  A ratio of two positive times, so it is never 0 or negative.
pub fn wait_ratio(untraced_median_ms: f64, traced_service_ms: &[f64]) -> f64 {
    untraced_median_ms / median(traced_service_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_permille(10), None);
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(39), Some(500));
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        for n in 20..20_000 {
            let p = tail_permille(n).expect("n >= 20 has a tail");
            assert!(n - nearest_rank(n, p) >= TAIL_BEYOND, "n={n} p={p}");
            // ... and the next rung up would leave fewer than ten.
            if let Some(&next) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(n - nearest_rank(n, next) < TAIL_BEYOND, "n={n} p={p}");
            }
        }
        assert_eq!(label(990), "p99");
        assert_eq!(label(995), "p99.5");
    }

    #[test]
    fn tail_value_is_the_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&samples), Some((900, 90.0)));
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((500, 10.0)));
        assert_eq!(tail(&[1.0; 5]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 100, None),
            span("server.resolve", 10, 70, Some(0)),
            span("session.freeze", 20, 60, Some(1)),
            span("lattice.build", 25, 45, Some(2)),
            span("server.encode", 80, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![25, 20, 20, 20, 15]);
        assert!((coverage(&spans, "request") - 0.75).abs() < 1e-12);
        // A second root adds its own uncovered remainder.
        let mut two = spans.clone();
        two.push(span("request", 200, 300, None));
        assert!((coverage(&two, "request") - 75.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn wait_is_untraced_median_over_traced_service_median() {
        let service = [0.5, 0.25, 2.0, 0.75];
        // median of the traced service times is 0.625 ms
        assert!((wait_ratio(1.25, &service) - 2.0).abs() < 1e-12);
        // faster live than traced (tracing costs time): below 1, still > 0
        assert!((wait_ratio(0.5, &service) - 0.8).abs() < 1e-12);
    }
}
