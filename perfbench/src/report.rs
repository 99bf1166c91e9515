//! Named metrics with units, and the result line the benchmark prints.

use crate::stats::json_str;

/// Metrics in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Report {
    entries: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // A metric that could not be computed reads 0, never NaN: the
        // result line must stay valid JSON.
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name.to_owned(), value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`
    pub fn json(&self) -> String {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Report,
    /// Diagnostics printed ahead of the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut metrics = Report::default();
        metrics.put("setup_s", 0.5, "s");
        metrics.put("broken", f64::NAN, "ms");
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics,
            notes: Vec::new(),
        };
        assert_eq!(
            out.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"broken\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}

/// End-to-end samples of one untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Per job: start → last front returned (serve: submit → `done`).
    pub front_ms: Vec<f64>,
    /// Per job: start → first result the user observes (serve: the first
    /// `trace` event; in process: the first front returned).
    pub first_ms: Vec<f64>,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// One sample per repeated set-up.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn report(&self, error_rate: f64) -> Report {
        use crate::stats::{median, percentile};
        let mut r = Report::default();
        r.put("time_to_front_ms_p50", median(&self.front_ms), "ms");
        r.put(
            "time_to_front_ms_p90",
            percentile(&self.front_ms, 90.0),
            "ms",
        );
        r.put("first_trace_ms_p50", median(&self.first_ms), "ms");
        r.put("first_trace_ms_p90", percentile(&self.first_ms, 90.0), "ms");
        r.put(
            "jobs_per_s",
            if self.timed_s > 0.0 {
                self.front_ms.len() as f64 / self.timed_s
            } else {
                0.0
            },
            "1/s",
        );
        r.put("setup_s", median(&self.setup_s), "s");
        r.put("peak_rss_mb", self.peak_rss_mb, "MB");
        r.put("success_rate", 1.0 - error_rate, "ratio");
        r
    }
}
