//! Metrics, the human report and the one-line JSON result.

use crate::checks::Checks;
use crate::host::Host;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the report but left out of the result line.
    pub reported: Vec<Metric>,
    /// Report lines printed before the result line.
    pub lines: Vec<String>,
}

/// JSON number: finite values print with all their digits; a non-finite
/// value (never expected) prints as -1 so the line stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.failed == 0 && outcome.checks.attempted > 0,
        outcome.checks.attempted.max(1),
        outcome.checks.failed,
        metrics.join(", ")
    )
}

/// The full result document for `--out`: the result line's content plus
/// the run's identity and host fingerprint.
pub fn result_document(outcome: &Outcome, host: &Host, run: &[(&str, String)]) -> String {
    let run: Vec<String> = run.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v))).collect();
    format!(
        "{{\"run\": {{{}}}, \"host\": {{\"nproc\": {}, \"cpu_model\": \"{}\", \"kernel\": \"{}\", \
         \"rustc\": \"{}\", \"git_rev\": \"{}\", \"git_dirty\": {}}}, \"error_rate\": {}, \
         \"result\": {}}}\n",
        run.join(", "),
        host.nproc,
        escape(&host.cpu_model),
        escape(&host.kernel),
        escape(&host.rustc),
        escape(&host.git_rev),
        host.git_dirty.map_or("null".to_string(), |d| d.to_string()),
        num(outcome.checks.error_rate()),
        result_line(outcome)
    )
}

/// Human-readable metric table lines.
pub fn metric_lines(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| format!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit)).collect()
}
