//! Percentiles, metric names, and the one-line JSON result.

use std::collections::BTreeMap;

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Linearly interpolated percentile (`q` in `[0, 1]`) of unsorted samples,
/// the same definition as numpy's default ("type 7"). `NaN` when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// How many of `n` samples lie above the `q`-th percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    // The epsilon keeps 100 × 0.9 from rounding up to rank 91.
    let rank = ((q * n as f64) - 1e-9).ceil().max(0.0) as usize;
    n.saturating_sub(rank)
}

/// Whether `n` samples support reporting the `q`-th percentile: at least
/// [`MIN_BEYOND`] of them lie beyond it.
pub fn supports_percentile(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// A metric name: 1–64 characters from `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics with units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`; panics on an invalid name so a typo
    /// never reaches the output.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<String> {
        self.values
            .iter()
            .filter(|(_, (v, _))| !v.is_finite())
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit kept.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(k, (v, u))| {
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite `f64` as a JSON number (shortest round-trip form); `null`
/// otherwise.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.9) - 90.1).abs() < 1e-9);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(supports_percentile(100, 0.9));
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert!(!supports_percentile(99, 0.9));
        assert!(supports_percentile(20, 0.5));
        assert!(!supports_percentile(19, 0.5));
        assert!(!supports_percentile(12, 0.9));
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "net.queue_wait_ms",
            "gpu_sim.l2_hit_rate",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "lat%", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_refuse_bad_names() {
        Metrics::default().set("bad name", 1.0, "ms");
    }

    #[test]
    fn result_line_keeps_all_digits() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.2034567891234, "ms");
        m.set("count", 3.0, "count");
        assert_eq!(
            result_line(true, 5, 0, &m),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"count\": {\"value\": 3.0, \"unit\": \"count\"}, \
             \"latency_ms\": {\"value\": 1.2034567891234, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "null");
    }
}
