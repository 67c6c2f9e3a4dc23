//! Metric names, units and the result line the benchmark prints last.

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ms_per_test", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("failed_share", "share"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("explore.solver.queries.feasibility", "count"),
    ("explore.solver.queries.model", "count"),
    ("explore.solver.queries.pick", "count"),
    ("explore.solver.queries.summary", "count"),
    ("explore.solver.ms.feasibility", "ms"),
    ("explore.solver.ms.model", "ms"),
    ("explore.solver.ms.pick", "ms"),
    ("explore.solver.ms.summary", "ms"),
    ("insn_space.ms", "ms"),
    ("explore.ms_per_path", "ms"),
    ("explore.other.ms", "ms"),
    ("explore.paths", "count"),
    ("explore.unknown_queries", "count"),
    ("explore.incomplete", "count"),
    ("testgen.ms", "ms"),
    ("testgen.dropped", "count"),
    ("target.baseline.ms", "ms"),
    ("target.hardware.ms_per_test", "ms"),
    ("target.hifi.ms_per_test", "ms"),
    ("target.lofi.ms_per_test", "ms"),
    ("target.hifi_over_lofi", "ratio"),
    ("target.timeouts", "count"),
    ("target.lofi.tb_misses", "count"),
    ("analyze.ms_per_test", "ms"),
    ("analyze.deviations.lofi", "count"),
    ("analyze.deviations.hifi", "count"),
    ("lift.unreached", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The unit of a defined metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The one-line JSON result: `correct`, `attempted`, `failed` and each
/// metric's value (every digit Rust prints) with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit_of(name).unwrap_or("?")
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pokemu_rt::json::{self, Value};

    /// A metric name starts with a letter or a digit and has at most 64
    /// letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_used_once() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a metric name is used twice");
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name("a/b"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = json::parse(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("");
                    (field("name").to_owned(), field("unit").to_owned())
                })
                .collect()
        };
        let owned = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
            defs.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
        let names: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let line = result_line(true, 3, 0, &[("ms_per_test", 1.25), ("setup_s", 0.5)]);
        let v = json::parse(&line).expect("valid JSON");
        let m = v.get("metrics").and_then(|m| m.get("ms_per_test")).unwrap();
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
