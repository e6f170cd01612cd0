//! Metrics, medians, and the one-line JSON result.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Operations attempted (including the rerun check).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// Appends a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Failed over attempted operations.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// A metric that could not be measured (not finite) prints as -1 and
    /// makes the run incorrect.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of the finite samples (NaN when there are none).
pub fn median(samples: &[f64]) -> f64 {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut r = RunReport {
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push(Metric::new("host_s", "s", 0.25));
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"host_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.push(Metric::new("x", "s", f64::NAN));
        assert!(!r.correct());
    }
}
