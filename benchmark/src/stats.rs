//! Sample summaries and regression bounds.

use crate::catalogue::{Better, Bound, MetricSpec};

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Median and the first and third quartiles, the latter by the same
/// "exclusive" method as Python's `statistics.quantiles(xs, n=4)`, so the
/// spreads printed here are the ones a Python reader of the results gets.
/// One sample is its own median and quartiles.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let median = if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    };
    if n == 1 {
        return Summary {
            median,
            q1: median,
            q3: median,
            n,
        };
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    Summary {
        median,
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

/// Whether `new` stays within `spec`'s bound of the baseline `base`:
/// no worse by more than the bound's share for end-to-end metrics,
/// identical for exact ones; host-time layer metrics always pass.
pub fn within_bound(spec: &MetricSpec, base: f64, new: f64) -> bool {
    match spec.bound {
        Bound::Free => true,
        Bound::Exact => base.to_bits() == new.to_bits(),
        Bound::Share(b) => match spec.better {
            Better::Lower => new <= base * (1.0 + b),
            Better::Higher => new >= base * (1.0 - b),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::metric;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = summarize(&[3.5]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.5, 3.5, 3.5, 1));
    }

    #[test]
    fn odd_count_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!(close(s.median, 3.0));
        assert!(close(s.q1, 1.5) && close(s.q3, 4.5), "{s:?}");
        assert_eq!(s.n, 5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 2.0, 1.0]);
        assert!(close(s.q1, 1.0) && close(s.median, 2.0) && close(s.q3, 3.0));
    }

    #[test]
    fn even_count_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = summarize(&[4.0, 3.0, 2.0, 1.0]);
        assert!(close(s.median, 2.5));
        assert!(close(s.q1, 1.25) && close(s.q3, 3.75), "{s:?}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert!(close(s.q1, 0.75) && close(s.median, 1.5) && close(s.q3, 2.25));
        // Ten samples, the size of one set of benchmark runs.
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25));
    }

    #[test]
    fn share_bounds_follow_the_direction() {
        let wall = metric("wall_s").expect("catalogued");
        let rate = metric("sim_cycles_per_s").expect("catalogued");
        let Bound::Share(b) = wall.bound else {
            panic!("wall_s has a share bound")
        };
        assert!(within_bound(wall, 10.0, 10.0));
        assert!(within_bound(wall, 10.0, 10.0 * (1.0 + b) - 1e-9));
        assert!(!within_bound(wall, 10.0, 10.0 * (1.0 + b) + 1e-9));
        assert!(
            within_bound(wall, 10.0, 1.0),
            "faster is never a regression"
        );
        assert!(within_bound(rate, 100.0, 500.0));
        assert!(!within_bound(rate, 100.0, 100.0 * (1.0 - b) - 1e-6));
    }

    #[test]
    fn exact_metrics_must_repeat_bit_for_bit() {
        let cycles = metric("sim_cycles").expect("catalogued");
        let edp = metric("edp_js").expect("catalogued");
        assert!(within_bound(cycles, 204_687.0, 204_687.0));
        assert!(
            !within_bound(cycles, 204_687.0, 204_686.0),
            "better is still a change"
        );
        assert!(!within_bound(edp, 1.0e-8, 1.0e-8 * (1.0 + f64::EPSILON)));
        let share = metric("net.share").expect("catalogued");
        assert!(within_bound(share, 0.5, 0.9), "host shares carry no bound");
    }
}
