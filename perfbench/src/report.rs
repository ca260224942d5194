//! What one run reports: counts of operations attempted and failed, the
//! metrics with their units and sample counts, and the final JSON line.

use apots_serde::{Json, Map};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (`None` for a single measurement).
    pub samples: Option<usize>,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (training runs, requests or grid runs).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Remarks printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        if !value.is_finite() {
            self.error(format!("{name} is not finite ({value})"));
            return;
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a remark for the table.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Counts one attempted operation, failed when `error` is `Some`.
    pub fn check(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            self.error(e);
        }
    }

    /// Records a failed check that is not one operation's, such as too
    /// few samples or a checksum over many requests: the run is incorrect
    /// but no operation is counted.
    pub fn error(&mut self, error: String) {
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// Folds another outcome's counts, errors and metrics into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    /// Whether every operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The human-readable table printed above the result line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        for m in &self.metrics {
            let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            out.push_str(&format!(
                "  {:<34} {:>16.6} {}{}\n",
                m.name, m.value, m.unit, samples
            ));
        }
        out
    }

    /// The result line: metrics only when every check passed, since a
    /// failed run's numbers measure the wrong computation.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        if self.correct() {
            for m in &self.metrics {
                let mut v = Map::new();
                v.insert("value".into(), Json::Num(m.value));
                v.insert("unit".into(), Json::Str(m.unit.into()));
                metrics.insert(m.name.clone(), Json::Obj(v));
            }
        }
        let mut root = Map::new();
        root.insert("correct".into(), Json::Bool(self.correct()));
        root.insert("attempted".into(), Json::Num(self.attempted as f64));
        root.insert("failed".into(), Json::Num(self.failed as f64));
        root.insert("metrics".into(), Json::Obj(metrics));
        Json::Obj(root).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_withhold_metrics() {
        let mut o = Outcome::default();
        o.check(None);
        o.metric("setup_s", 0.25, "s", Some(3));
        let line = o.result_line();
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let m = j.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.25));
        o.check(Some("checksum mismatch".into()));
        o.error("too few samples".into());
        let j = Json::parse(&o.result_line()).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("failed").and_then(Json::as_f64), Some(1.0));
        assert!(j.get("metrics").unwrap().get("setup_s").is_none());
        assert_eq!(o.errors.len(), 2);
    }
}
