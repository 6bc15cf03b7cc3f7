//! The one gate harness behind every bench `--check`.
//!
//! A gated bench measures first, then reports `(metric, value)` pairs to
//! a [`Check`] loaded from its committed `BENCH_*.json` at the repository
//! root. Every threshold lives in that file's `gates` array, beside the
//! free-form reference measurements; the bench only names metrics:
//!
//! ```json
//! "gates": [
//!   { "metric": "serve.fast_path_speedup", "kind": "floor", "value": 6.0,
//!     "note": "why the threshold is where it is" }
//! ]
//! ```
//!
//! A `floor` passes when the measured value is ≥ `value`, a `ceiling`
//! when it is ≤ `value`; NaN passes neither. [`Check::finish`] prints one
//! verdict per gate and exits non-zero once, after all of them. A metric
//! the file has no gate for fails, and so does a gate the bench neither
//! measured nor explicitly [skipped](Check::skip) with a reason.

use std::io::{self, Write};

use serde_json::Value;

use crate::repo_root;

/// Whether the invocation asked for the gates (`--check`).
#[must_use]
pub fn requested() -> bool {
    std::env::args().any(|a| a == "--check")
}

/// Which side of the threshold passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Passes when the measured value is ≥ the threshold.
    Floor,
    /// Passes when the measured value is ≤ the threshold.
    Ceiling,
}

/// One entry of a baseline's `gates` array.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The name the bench reports the measurement under.
    pub metric: String,
    /// Floor or ceiling.
    pub kind: Kind,
    /// The threshold (finite).
    pub value: f64,
    /// Why the threshold is where it is.
    pub note: String,
}

impl Gate {
    /// Whether `measured` holds this gate.
    #[must_use]
    pub fn passes(&self, measured: f64) -> bool {
        match self.kind {
            Kind::Floor => measured >= self.value,
            Kind::Ceiling => measured <= self.value,
        }
    }
}

/// Parses the `gates` array of a baseline file. Errors on malformed
/// JSON, a missing `gates` array, an entry missing one of its four
/// fields, an unknown `kind`, a non-finite `value`, or a metric gated
/// twice.
pub fn parse(text: &str) -> Result<Vec<Gate>, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
    let entries = root
        .get("gates")
        .and_then(Value::as_array)
        .ok_or_else(|| "no `gates` array".to_string())?;
    let mut gates: Vec<Gate> = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let field = |key: &str| entry.get(key).ok_or_else(|| format!("gates[{i}]: no `{key}`"));
        let string = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("gates[{i}]: `{key}` is not a string"))
        };
        let metric = string("metric")?;
        let kind = match string("kind")?.as_str() {
            "floor" => Kind::Floor,
            "ceiling" => Kind::Ceiling,
            other => return Err(format!("gates[{i}]: unknown kind {other:?}")),
        };
        let value = field("value")?
            .as_f64()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("gates[{i}]: `value` is not a finite number"))?;
        let note = string("note")?;
        if gates.iter().any(|g| g.metric == metric) {
            return Err(format!("gates[{i}]: {metric} is gated twice"));
        }
        gates.push(Gate { metric, kind, value, note });
    }
    Ok(gates)
}

/// A bench's measurements checked against one baseline file.
#[derive(Debug)]
pub struct Check {
    file: String,
    gates: Vec<Gate>,
    measured: Vec<(String, f64)>,
    skipped: Vec<(String, String)>,
}

impl Check {
    /// Loads the gates of `file` (e.g. `"BENCH_wire.json"`) from the
    /// repository root.
    ///
    /// # Panics
    ///
    /// Panics if the file is unreadable or its gates do not [`parse`]:
    /// a broken committed baseline is a bug, not a gate verdict.
    #[must_use]
    pub fn load(file: &str) -> Self {
        let path = repo_root().join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("--check: cannot read {}: {e}", path.display()));
        let gates = parse(&text).unwrap_or_else(|e| panic!("--check: {}: {e}", path.display()));
        Self::new(file, gates)
    }

    /// A check against already-parsed gates; `file` names them in verdicts.
    fn new(file: &str, gates: Vec<Gate>) -> Self {
        Check { file: file.to_string(), gates, measured: Vec::new(), skipped: Vec::new() }
    }

    /// Records a measurement of `metric`.
    pub fn measure(&mut self, metric: impl Into<String>, value: f64) {
        self.measured.push((metric.into(), value));
    }

    /// Records that `metric` cannot be measured here, and why.
    pub fn skip(&mut self, metric: impl Into<String>, reason: impl Into<String>) {
        self.skipped.push((metric.into(), reason.into()));
    }

    /// Writes every verdict to `out` — one line per gate in baseline
    /// order, then one per reported metric the baseline does not gate —
    /// and returns whether all of them passed.
    pub fn report(&self, out: &mut impl Write) -> io::Result<bool> {
        let mut ok = true;
        for gate in &self.gates {
            let (sign, side) = match gate.kind {
                Kind::Floor => (">=", "floor"),
                Kind::Ceiling => ("<=", "ceiling"),
            };
            let mut seen = false;
            for &(_, value) in self.measured.iter().filter(|(m, _)| *m == gate.metric) {
                seen = true;
                let pass = gate.passes(value);
                ok &= pass;
                write!(
                    out,
                    "check {}: {value:.4} {sign} {side} {:.4} … ",
                    gate.metric, gate.value
                )?;
                if pass {
                    writeln!(out, "ok")?;
                } else {
                    writeln!(out, "FAIL ({})", gate.note)?;
                }
            }
            for (_, reason) in self.skipped.iter().filter(|(m, _)| *m == gate.metric) {
                seen = true;
                writeln!(out, "skip  {}: {reason}", gate.metric)?;
            }
            if !seen {
                ok = false;
                writeln!(out, "check {}: neither measured nor skipped … FAIL", gate.metric)?;
            }
        }
        let reported =
            self.measured.iter().map(|(m, _)| m).chain(self.skipped.iter().map(|(m, _)| m));
        for metric in reported.filter(|m| !self.gates.iter().any(|g| g.metric == **m)) {
            ok = false;
            writeln!(out, "check {metric}: no gate in {} … FAIL", self.file)?;
        }
        Ok(ok)
    }

    /// Prints every verdict to stderr, then exits with status 1 if any
    /// gate failed.
    pub fn finish(self) {
        let ok = self.report(&mut io::stderr().lock()).expect("write verdicts to stderr");
        if !ok {
            eprintln!("--check: gates failed against {}", self.file);
            std::process::exit(1);
        }
        eprintln!("--check: every gate in {} holds", self.file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(metric: &str, kind: Kind, value: f64) -> Gate {
        Gate { metric: metric.into(), kind, value, note: format!("{metric} note") }
    }

    fn verdicts(check: &Check) -> (bool, String) {
        let mut out = Vec::new();
        let ok = check.report(&mut out).expect("write to a Vec");
        (ok, String::from_utf8(out).expect("verdicts are UTF-8"))
    }

    #[test]
    fn floor_and_ceiling_hold_exactly_at_the_threshold_and_fail_one_ulp_past() {
        let v = 1.788_f64;
        let floor = gate("f", Kind::Floor, v);
        assert!(floor.passes(v));
        assert!(floor.passes(v.next_up()));
        assert!(!floor.passes(v.next_down()));
        let ceiling = gate("c", Kind::Ceiling, v);
        assert!(ceiling.passes(v));
        assert!(ceiling.passes(v.next_down()));
        assert!(!ceiling.passes(v.next_up()));
        // Negative thresholds (the p98 delta floor) behave the same way.
        let negative = gate("d", Kind::Floor, -0.10);
        assert!(negative.passes(-0.10));
        assert!(!negative.passes((-0.10_f64).next_down()));
        assert!(!floor.passes(f64::NAN) && !ceiling.passes(f64::NAN));
    }

    #[test]
    fn a_measured_metric_without_a_baseline_entry_fails() {
        let mut check = Check::new("BENCH_x.json", vec![gate("a", Kind::Floor, 1.0)]);
        check.measure("a", 2.0);
        check.measure("b", 2.0);
        let (ok, out) = verdicts(&check);
        assert!(!ok);
        assert!(out.contains("check b: no gate in BENCH_x.json … FAIL"), "{out}");

        let mut skipped = Check::new("BENCH_x.json", vec![gate("a", Kind::Floor, 1.0)]);
        skipped.measure("a", 2.0);
        skipped.skip("typo", "not here");
        assert!(!verdicts(&skipped).0, "a skip names a gate that must exist");
    }

    #[test]
    fn a_gate_neither_measured_nor_skipped_fails() {
        let gates = vec![gate("a", Kind::Floor, 1.0), gate("b", Kind::Ceiling, 1.0)];
        let mut check = Check::new("BENCH_x.json", gates.clone());
        check.measure("a", 2.0);
        let (ok, out) = verdicts(&check);
        assert!(!ok);
        assert!(out.contains("check b: neither measured nor skipped … FAIL"), "{out}");

        let mut skipped = Check::new("BENCH_x.json", gates);
        skipped.measure("a", 2.0);
        skipped.skip("b", "no kernel support");
        let (ok, out) = verdicts(&skipped);
        assert!(ok, "{out}");
        assert!(out.contains("skip  b: no kernel support"), "{out}");
    }

    #[test]
    fn malformed_baselines_are_errors() {
        let entry = |body: &str| format!(r#"{{"gates": [{body}]}}"#);
        let ok = r#"{"metric": "m", "kind": "floor", "value": 1.5, "note": "n"}"#;
        assert_eq!(
            parse(&entry(ok)),
            Ok(vec![Gate { metric: "m".into(), kind: Kind::Floor, value: 1.5, note: "n".into() }])
        );
        for bad in [
            "not json".to_string(),
            r#"{"gates": {}}"#.to_string(),
            r#"{"hold": []}"#.to_string(),
            entry(r#"{"metric": "m", "kind": "floor", "value": 1.5}"#),
            entry(r#"{"metric": "m", "kind": "ratio", "value": 1.5, "note": "n"}"#),
            entry(r#"{"metric": "m", "kind": "floor", "value": "1.5", "note": "n"}"#),
            entry(r#"{"metric": 3, "kind": "floor", "value": 1.5, "note": "n"}"#),
            entry(&format!("{ok}, {ok}")),
        ] {
            assert!(parse(&bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn every_verdict_is_reported_before_the_outcome() {
        let gates = vec![
            gate("low", Kind::Floor, 2.0),
            gate("fine", Kind::Floor, 1.0),
            gate("high", Kind::Ceiling, 1.0),
            gate("missing", Kind::Floor, 1.0),
        ];
        let mut check = Check::new("BENCH_x.json", gates);
        check.measure("low", 1.0);
        check.measure("fine", 1.0);
        check.measure("high", 2.0);
        let (ok, out) = verdicts(&check);
        assert!(!ok);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].starts_with("check low: 1.0000 >= floor 2.0000 … FAIL (low note)"));
        assert!(lines[1].ends_with("… ok"));
        assert!(lines[2].starts_with("check high: 2.0000 <= ceiling 1.0000 … FAIL"));
        assert!(lines[3].starts_with("check missing: neither measured nor skipped … FAIL"));
    }
}
