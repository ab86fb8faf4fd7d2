//! The result line and the statistics behind it.
//!
//! Every run ends by printing one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! The tests read that line back with a parser of their own, so the
//! format is checked as a round trip rather than by eye.

use std::fmt::Write as _;

/// Operation accounting plus the named metrics of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Outputs checked and found wrong (counted in `failed` too).
    pub mismatches: u64,
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count one checked output that did not match its reference.
    pub fn mismatch(&mut self, what: &str) {
        self.mismatches += 1;
        self.failed += 1;
        self.attempted += 1;
        eprintln!("perfbench: output mismatch: {what}");
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        assert!(
            valid_name(name),
            "metric name {name:?} is not [A-Za-z0-9_.-]+"
        );
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    /// An error naming every difference between the metrics this run
    /// holds and those `BENCHMARK.json` declares under `section`: the
    /// result line must carry each declared metric once, in its unit.
    pub fn check_declared(&self, section: &str) -> Result<(), String> {
        let mut want: Vec<(&str, &str)> = declared(section);
        let mut have: Vec<(&str, &str)> = self
            .metrics
            .iter()
            .map(|(name, _, unit)| (name.as_str(), unit.as_str()))
            .collect();
        want.sort_unstable();
        have.sort_unstable();
        if want == have {
            return Ok(());
        }
        let missing: Vec<_> = want.iter().filter(|m| !have.contains(m)).collect();
        let extra: Vec<_> = have.iter().filter(|m| !want.contains(m)).collect();
        let repeated = have.windows(2).filter(|w| w[0] == w[1]).count();
        Err(format!(
            "the run's metrics differ from BENCHMARK.json {section}: missing {missing:?}, \
             undeclared {extra:?}, {repeated} repeated"
        ))
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }

    /// Parse a line produced by [`Report::to_json`]. Only that shape is
    /// accepted: the parser is for this benchmark's own output.
    #[cfg(test)]
    pub fn parse(line: &str) -> Result<(bool, Report), String> {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let mut report = Report::default();
        let mut correct = None;
        p.eat(b'{')?;
        loop {
            let key = p.string()?;
            p.eat(b':')?;
            match key.as_str() {
                "correct" => correct = Some(p.boolean()?),
                "attempted" => report.attempted = p.number()? as u64,
                "failed" => report.failed = p.number()? as u64,
                "metrics" => {
                    p.eat(b'{')?;
                    if !p.peek_is(b'}') {
                        loop {
                            let name = p.string()?;
                            p.eat(b':')?;
                            p.eat(b'{')?;
                            let (mut value, mut unit) = (None, None);
                            loop {
                                let field = p.string()?;
                                p.eat(b':')?;
                                match field.as_str() {
                                    "value" => value = Some(p.number()?),
                                    "unit" => unit = Some(p.string()?),
                                    other => return Err(format!("unknown metric field {other}")),
                                }
                                if !p.comma()? {
                                    break;
                                }
                            }
                            p.eat(b'}')?;
                            report.metrics.push((
                                name,
                                value.ok_or("metric without value")?,
                                unit.ok_or("metric without unit")?,
                            ));
                            if !p.comma()? {
                                break;
                            }
                        }
                    }
                    p.eat(b'}')?;
                }
                other => return Err(format!("unknown key {other}")),
            }
            if !p.comma()? {
                break;
            }
        }
        p.eat(b'}')?;
        Ok((correct.ok_or("missing correct")?, report))
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under
/// `section` (`end_to_end` or `per_layer`), in declaration order.
pub fn declared(section: &str) -> Vec<(&'static str, &'static str)> {
    const MANIFEST: &str = include_str!("../../BENCHMARK.json");
    let field = |entry: &'static str, key: &str| {
        entry
            .split_once(&format!("\"{key}\": \""))
            .and_then(|(_, rest)| rest.split('"').next())
            .unwrap_or_default()
    };
    let Some((_, body)) = MANIFEST.split_once(&format!("\"{section}\": [")) else {
        return Vec::new();
    };
    body.split(']')
        .next()
        .unwrap_or_default()
        .split('}')
        .filter(|entry| entry.contains("\"name\""))
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// Metric names the benchmark may emit: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Every digit Rust's shortest round-trip formatting gives, always as a
/// JSON number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        s.strip_suffix(".0").map_or(s.clone(), str::to_owned)
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn peek_is(&mut self, b: u8) -> bool {
        self.ws();
        self.s.get(self.i) == Some(&b)
    }
    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek_is(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.i))
        }
    }
    fn comma(&mut self) -> Result<bool, String> {
        if self.peek_is(b',') {
            self.i += 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i] != b'"' {
            self.i += 1;
        }
        let out = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        self.eat(b'"')?;
        Ok(out)
    }
    fn boolean(&mut self) -> Result<bool, String> {
        self.ws();
        for (lit, v) in [("true", true), ("false", false)] {
            if self.s[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                return Ok(v);
            }
        }
        Err(format!("expected a boolean at byte {}", self.i))
    }
    fn number(&mut self) -> Result<f64, String> {
        self.ws();
        let start = self.i;
        while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("expected a number at byte {start}"))
    }
}

/// The `q`-quantile (`0..=1`) of `values` by linear interpolation between
/// order statistics; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut r = Report::default();
        r.op(true);
        r.op(true);
        r.op(false);
        r.put("suite_s", 11.062_345_678_9, "s");
        r.put("read_p99_ms", 0.000_123_4, "ms");
        r.put("gpu.launches", 123_456.0, "count");
        let line = r.to_json();
        let (correct, back) = Report::parse(&line).expect("parses");
        assert!(!correct);
        assert_eq!(back.attempted, 3);
        assert_eq!(back.failed, 1);
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.to_json(), line);
    }

    #[test]
    fn empty_metrics_round_trip() {
        let mut r = Report::default();
        r.op(true);
        let (correct, back) = Report::parse(&r.to_json()).expect("parses");
        assert!(correct);
        assert!(back.metrics.is_empty());
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("core.run_s.GMS"));
        assert!(valid_name("read_p50_ms"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn manifest_declares_valid_unique_metrics() {
        for section in ["end_to_end", "per_layer"] {
            let metrics = declared(section);
            assert!(!metrics.is_empty(), "{section}");
            let mut names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
            for (name, unit) in &metrics {
                assert!(valid_name(name), "{name:?}");
                assert!(!unit.is_empty(), "{name} has no unit");
            }
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), metrics.len(), "{section} repeats a name");
        }
        assert!(declared("end_to_end").contains(&("setup_s", "s")));
    }

    #[test]
    fn check_declared_names_the_difference() {
        let mut r = Report::default();
        for (name, unit) in declared("end_to_end") {
            r.put(name, 1.0, unit);
        }
        assert_eq!(r.check_declared("end_to_end"), Ok(()));
        r.put("setup_s", 1.0, "s");
        assert!(r.check_declared("end_to_end").is_err());
        r.metrics.pop();
        let unit = std::mem::replace(&mut r.metrics[0].2, "ms".to_owned());
        assert!(r.check_declared("end_to_end").is_err());
        r.metrics[0].2 = unit;
        r.metrics.pop();
        assert!(r.check_declared("end_to_end").is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }
}
