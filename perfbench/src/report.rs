//! Run results: metrics with units and sample counts, summary statistics,
//! and the one-line JSON result the benchmark prints last.

use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `MB`, `count`, `ratio`).
    pub unit: &'static str,
    /// Samples behind the value, for percentiles and means.
    pub samples: Option<usize>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (pipeline calls, requests, jobs, checks).
    pub attempted: u64,
    /// Operations that failed or produced an output differing from its
    /// reference.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// The first few failure descriptions (printed to stderr).
    pub failures: Vec<String>,
    /// Human-readable lines printed after the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    /// Adds a metric with its sample count.
    pub fn put_n(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(n),
        });
    }

    /// Counts one attempted operation; `Err` counts it as failed too.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    /// Whether every operation succeeded with a correct output.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable metric lines, sample counts beside values.
    pub fn human_lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| match m.samples {
                Some(n) => format!("  {:<28} {:>14.4} {:<6} (n={n})", m.name, m.value, m.unit),
                None => format!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit),
            })
            .chain(self.notes.iter().map(|n| format!("  {n}")))
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::Str(s.to_owned())).expect("string serializes")
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives; non-finite values (which JSON cannot carry) render as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// One pass of a workload: its wall time and the latency of each
/// operation in it.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of the pass, in seconds.
    pub wall_s: f64,
    /// Latency of every operation of the pass, in milliseconds.
    pub op_ms: Vec<f64>,
}

/// Adds the end-to-end metrics every workload reports. The pass time is
/// the median over passes, so a slow spell of the host that covers less
/// than half of a run does not move it; the latency percentiles pool every
/// operation of the run, so that even the 20-operation passes of `paper`
/// leave ten samples beyond the 90th. A pass has a fixed number of operations,
/// so the operation rate is that number over `pass_s`: it is printed, not
/// reported as a second metric of the same measurement.
pub fn put_end_to_end(rep: &mut Report, setup: (f64, usize), passes: &[Pass]) {
    let all: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.op_ms.iter().copied())
        .collect();
    let pass_s = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let per_pass = passes.first().map_or(0, |p| p.op_ms.len());
    rep.put_n("setup_s", setup.0, "s", setup.1);
    rep.put("peak_rss_mb", peak_rss_mb(), "MB");
    rep.put_n("pass_s", pass_s, "s", passes.len());
    rep.put_n("op_ms_p50", median(&all), "ms", all.len());
    rep.put_n("op_ms_p90", quantile(&all, 0.9), "ms", all.len());
    rep.notes.push(format!(
        "rate: {:.3} operations/s ({per_pass} per pass over pass_s)",
        ratio(per_pass as f64, pass_s)
    ));
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples
/// (0 for an empty sample).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
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
    quantile(samples, 0.5)
}

/// Sum divided by count, 0 for no samples.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times a workload's set-up: a few times before measuring, then again in
/// short slices between passes, each result dropped outside the timing.
/// `setup_s` is the median of every set-up of the run, so that it samples
/// the host over the whole run, as `pass_s` does, and not only over its
/// first moments.
pub struct SetupTimer<F> {
    setup: F,
    times: Vec<f64>,
    last_slice: Instant,
}

impl<T, F: FnMut() -> T> SetupTimer<F> {
    /// A timer for `setup`.
    pub fn new(setup: F) -> Self {
        SetupTimer {
            setup,
            times: Vec::new(),
            last_slice: Instant::now(),
        }
    }

    fn timed(&mut self) -> T {
        let t0 = Instant::now();
        let out = (self.setup)();
        self.times.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Runs the set-up `reps` times (at least once) and keeps the last
    /// result.
    pub fn first(&mut self, reps: usize) -> T {
        for _ in 1..reps {
            drop(self.timed());
        }
        let out = self.timed();
        self.last_slice = Instant::now();
        out
    }

    /// Called between passes: once a second has gone by since the last
    /// slice, repeats the set-up for a twentieth of that time.
    pub fn between_passes(&mut self) {
        let since = self.last_slice.elapsed().as_secs_f64();
        if since < 1.0 {
            return;
        }
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < since / 20.0 {
            drop(self.timed());
        }
        self.last_slice = Instant::now();
    }

    /// The median set-up time in seconds, with the number of set-ups.
    pub fn median_s(&self) -> (f64, usize) {
        (median(&self.times), self.times.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.check("op", Ok(()));
        r.put("pass_s", 1.25, "s");
        let v: serde_json::Value = serde_json::from_str(&r.json_line()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("pass_s")).unwrap();
        assert_eq!(
            m.get("value").and_then(serde_json::Value::as_f64),
            Some(1.25)
        );
        assert_eq!(m.get("unit").and_then(serde_json::Value::as_str), Some("s"));
    }
}
