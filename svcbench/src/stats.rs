//! Order statistics and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile `q ∈ [0, 1]` of `xs` (sorted in place).
/// Empty input gives NaN, which the caller treats as "no samples".
pub fn pct(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    pct(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Prints a `name value unit` table to stderr under `title`.
    pub fn print_table(&self, title: &str) {
        eprintln!("== {title}");
        for m in &self.0 {
            eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
}

/// The machine-readable last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            s,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}
