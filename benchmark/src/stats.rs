//! Order statistics and the noise-aware comparison verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread printed here is the spread
//! a reader recomputes from the JSON lines with the standard library.

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarise `values` (any order). `None` for an empty set.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted)?;
        Some(Summary {
            n: sorted.len(),
            median: median(&sorted)?,
            q1,
            q3,
        })
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0, so a constant zero series reads as steady).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Median of an ascending slice.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile of an ascending slice, by Python's
/// exclusive method (`m = n + 1`, linear interpolation between the
/// order statistics around `i·m/4`). One sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let ld = sorted.len();
    match ld {
        0 => return None,
        1 => return Some((sorted[0], sorted[0])),
        _ => {}
    }
    let m = ld + 1;
    let at = |i: usize| -> f64 {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest of the percentiles 50, 90, 99, 99.9 and 99.99 that has
/// at least ten samples above it, with its value.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len() as f64;
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .and_then(|p| Some((p, percentile(sorted, p)?)))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

/// The outcome of comparing a candidate set of runs against a base set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is better than the base by more than the
    /// bound.
    Better,
    /// Neither better nor worse by more than the bound.
    WithinBound,
    /// The candidate's median is worse than the base by more than the
    /// bound.
    Worse,
    /// One side's spread exceeds the bound, so the sets cannot tell a
    /// change of that size from noise.
    Unresolved,
}

impl Verdict {
    /// Label used in the comparison table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed relative change from `base` to `cand`, positive when the
/// candidate is worse.
pub fn worsening(base: f64, cand: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (cand - base) / base.abs(),
        Better::Higher => (base - cand) / base.abs(),
    }
}

/// Compare two run sets of one metric against its regression bound. The
/// bound works both ways: two sets of the same code can differ by up to
/// it on a shared machine, so a smaller gain is not called better.
pub fn verdict(base: &Summary, cand: &Summary, better: Better, bound: f64) -> Verdict {
    if base.spread() > bound || cand.spread() > bound {
        return Verdict::Unresolved;
    }
    let delta = worsening(base.median, cand.median, better);
    if delta > bound {
        Verdict::Worse
    } else if -delta > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_sorts_and_reports_spread() {
        let s = Summary::of(&[10.0, 1.0, 4.0, 7.0, 2.0, 9.0, 3.0, 8.0, 5.0, 6.0]).unwrap();
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs, 100.0), Some(1000.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // 1000 samples: p99 leaves exactly 10 above it, p99.9 only 1.
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));
        let many: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many), Some((99.99, 99_990.0)));
        assert_eq!(tail_percentile(&[1.0; 5]), None);
    }

    fn steady(median: f64) -> Summary {
        Summary {
            n: 10,
            median,
            q1: median * 0.99,
            q3: median * 1.01,
        }
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let base = steady(100.0);
        // Lower is better: 5% slower is inside a 10% bound, 15% is not.
        assert_eq!(
            verdict(&base, &steady(105.0), Better::Lower, 0.1),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&base, &steady(115.0), Better::Lower, 0.1),
            Verdict::Worse
        );
        // 15% faster is beyond the bound, 5% faster is not.
        assert_eq!(
            verdict(&base, &steady(85.0), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &steady(95.0), Better::Lower, 0.1),
            Verdict::WithinBound
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(&base, &steady(85.0), Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &steady(115.0), Better::Higher, 0.1),
            Verdict::Better
        );
        // A spread wider than the bound cannot resolve anything.
        let noisy = Summary {
            n: 10,
            median: 100.0,
            q1: 80.0,
            q3: 120.0,
        };
        assert_eq!(
            verdict(&noisy, &steady(100.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn worsening_is_relative_to_the_base() {
        assert!((worsening(200.0, 220.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(200.0, 220.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }
}
