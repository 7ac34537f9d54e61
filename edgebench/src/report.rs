//! Metric records and the two output forms: an aligned table for people
//! and one JSON line, the last line of standard output, for tools.

use std::fmt::Write as _;

use crate::checks::Checks;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Collects the metrics of a run; a metric that could not be measured is
/// kept as a note saying why, and is left out of the JSON.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    missing: Vec<String>,
}

impl Report {
    pub fn push(&mut self, m: Metric) {
        if m.value.is_finite() {
            self.metrics.push(m);
        } else {
            self.missing(&m.name, "not a finite number");
        }
    }

    pub fn push_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str, why: &str) {
        match value {
            Some(v) => self.push(Metric::new(name, v, unit)),
            None => self.missing(name, why),
        }
    }

    pub fn extend(&mut self, ms: impl IntoIterator<Item = Metric>) {
        for m in ms {
            self.push(m);
        }
    }

    pub fn missing(&mut self, name: &str, why: &str) {
        self.missing.push(format!("{name}: missing ({why})"));
    }

    /// Prints the table, the check verdicts and, last, the JSON line.
    pub fn print(&self, checks: &Checks, correct: bool) {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.metrics {
            println!("{:<width$}  {:>18.6}  {}", m.name, m.value, m.unit);
        }
        for note in &self.missing {
            println!("{note}");
        }
        println!(
            "checks: {} attempted, {} failed",
            checks.attempted(),
            checks.failed()
        );
        for f in checks.failures() {
            println!("FAILED {f}");
        }
        println!("verdict: {}", if correct { "correct" } else { "INCORRECT" });
        println!("{}", self.json(checks, correct));
    }

    fn json(&self, checks: &Checks, correct: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            checks.attempted(),
            checks.failed()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // f64's Display prints every digit needed to round-trip and
            // never uses exponent notation, so it is valid JSON as is.
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
