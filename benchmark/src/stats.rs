//! The estimators: quantiles, medians, and the fastest round.

/// Sorts a copy of `values` ascending (NaN-free input).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive
/// method) — the driver's spread is the distance between these as a
/// share of the median, so `aa` and `compare` must use the same rule.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to 1..=n-1, delta = i*(n+1) - j*4
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The highest percentile that still has at least ten samples beyond
/// it, capped at p99: `(q, samples beyond)`. With fewer than twenty
/// samples the median is all the sample supports.
pub fn tail_quantile(n: usize) -> (f64, usize) {
    if n < 20 {
        return (0.5, n / 2);
    }
    let q = (1.0 - 10.0 / n as f64).min(0.99);
    (q, ((1.0 - q) * n as f64).round() as usize)
}

/// One replay of the whole request list.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// From the previous round's last response to this round's.
    pub seconds: f64,
    /// Send→receive latency of each response in the round, µs.
    pub latencies_us: Vec<f64>,
}

impl Round {
    /// Requests per second over the round.
    pub fn qps(&self) -> f64 {
        self.latencies_us.len() as f64 / self.seconds
    }
}

/// The round with the shortest duration. Interference on a shared
/// guest only ever adds time, so the fastest of many rounds is the
/// estimate least contaminated by it.
pub fn fastest_round(rounds: &[Round]) -> Option<&Round> {
    rounds
        .iter()
        .min_by(|a, b| a.seconds.partial_cmp(&b.seconds).expect("finite durations"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_three_ignores_one_outlier() {
        assert_eq!(median(&[1.52, 9.0, 1.49]), 1.52);
        assert_eq!(median(&[0.04, 1.5, 1.6]), 1.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10), (0.5, 5));
        assert_eq!(tail_quantile(100), (0.9, 10));
        assert_eq!(tail_quantile(1000), (0.99, 10));
        assert_eq!(tail_quantile(100_000), (0.99, 1000));
    }

    #[test]
    fn fastest_round_is_the_shortest_and_carries_its_own_latencies() {
        let rounds = vec![
            Round {
                seconds: 0.30,
                latencies_us: vec![900.0, 1100.0],
            },
            Round {
                seconds: 0.21,
                latencies_us: vec![700.0, 720.0, 710.0],
            },
            Round {
                seconds: 0.25,
                latencies_us: vec![800.0],
            },
        ];
        let best = fastest_round(&rounds).unwrap();
        assert_eq!(best.seconds, 0.21);
        assert_eq!(median(&best.latencies_us), 710.0);
        assert!((best.qps() - 3.0 / 0.21).abs() < 1e-9);
        assert!(fastest_round(&[]).is_none());
    }
}
