//! What a run prints: every metric as `name value unit`, then the
//! contract's one-line JSON summary last. Only metrics declared in
//! [`crate::contract`] can be recorded.

use crate::contract::{self, Metric};

/// The metrics one run measured, in the order they were recorded.
#[derive(Default)]
pub struct Report {
    values: Vec<(&'static Metric, f64)>,
}

impl Report {
    /// Records `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is not declared in the contract tables, is
    /// recorded twice, or the value is not finite — each is a bug in
    /// the runner, not a property of the measured system.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric =
            contract::metric(name).unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(self.get(name).is_none(), "metric `{name}` recorded twice");
        self.values.push((metric, value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|&(_, v)| v)
    }

    /// Prints every recorded metric as `name value unit`.
    pub fn print_lines(&self) {
        for (m, v) in &self.values {
            println!("{} {} {}", m.name, v, m.unit);
        }
    }

    /// The summary line over exactly the metrics in `set`; an error
    /// names the first one that was never recorded.
    pub fn summary(
        &self,
        set: &[Metric],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut members = Vec::with_capacity(set.len());
        for m in set {
            let v = self
                .get(m.name)
                .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
            members.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            members.join(", ")
        ))
    }
}

/// A parsed summary line.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Whether every answer was correct.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// `(name, value)` in printed order.
    pub metrics: Vec<(String, f64)>,
}

/// The text between `key` and the next `,` or `}` of `line`.
fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let rest = &line[line
        .find(key)
        .ok_or_else(|| format!("summary lacks {key}"))?
        + key.len()..];
    Ok(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim())
}

impl Summary {
    /// Parses a summary line as [`Report::summary`] writes it — the
    /// runner's own output, so no general JSON reader is needed.
    pub fn parse(line: &str) -> Result<Summary, String> {
        let number = |text: &str| {
            text.parse::<f64>()
                .map_err(|_| format!("`{text}` is not a number"))
        };
        let (head, metrics) = line
            .split_once("\"metrics\": {")
            .ok_or("summary lacks \"metrics\"")?;
        // Each member reads `"name": {"value": V, "unit": "U"}`.
        let metrics = metrics
            .split("\"}")
            .filter_map(|member| member.split_once("\": {\"value\": "))
            .map(|(name, rest)| {
                let name = name.rsplit('"').next().unwrap_or(name);
                let value = number(rest.split(',').next().unwrap_or(rest).trim())?;
                Ok((name.to_owned(), value))
            })
            .collect::<Result<_, String>>()?;
        Ok(Summary {
            correct: field(head, "\"correct\": ")?
                .parse()
                .map_err(|_| "`correct` is not a boolean")?,
            attempted: number(field(head, "\"attempted\": ")?)? as u64,
            failed: number(field(head, "\"failed\": ")?)? as u64,
            metrics,
        })
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_round_trips_and_keeps_all_digits() {
        let mut r = Report::default();
        r.set("qps", 1234.567890123);
        r.set("setup_s", 1.5);
        r.set("run.rounds", 101.0);
        let set = [
            *contract::metric("setup_s").unwrap(),
            *contract::metric("qps").unwrap(),
        ];
        let line = r.summary(&set, true, 5000, 0).unwrap();
        assert!(!line.contains('\n'));
        let s = Summary::parse(&line).unwrap();
        assert_eq!((s.correct, s.attempted, s.failed), (true, 5000, 0));
        assert_eq!(
            s.metrics,
            vec![("setup_s".into(), 1.5), ("qps".into(), 1234.567890123)]
        );
        assert_eq!(s.value("qps"), Some(1234.567890123));
    }

    #[test]
    fn a_missing_metric_is_an_error_not_a_silent_gap() {
        let r = Report::default();
        let set = [*contract::metric("qps").unwrap()];
        assert!(r.summary(&set, true, 1, 0).unwrap_err().contains("qps"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_cannot_be_recorded() {
        Report::default().set("made.up", 1.0);
    }
}
