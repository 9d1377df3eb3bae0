//! Snapshot exporters: a human-readable table and line-oriented JSON.
//!
//! Both renderers are pure functions of a [`Snapshot`], which is itself
//! name-ordered with integer fields — so equal snapshots render to
//! byte-identical strings, the property the determinism tests rely on.
//! The JSON is hand-rolled (no dependencies): one object per line, fixed
//! key order, floats printed with three decimals.

use std::fmt::Write as _;

use crate::metrics::{MetricValue, Snapshot};

/// Escapes a string for a JSON string literal (quotes not included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one JSON object per metric, names ascending.
///
/// Counters and gauges carry `value`; histograms carry their exact moments
/// and summary percentiles (or only `count: 0` when empty). Ends with a
/// trailing newline when the snapshot is non-empty.
pub fn render_jsonl(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.entries {
        let name = json_escape(name);
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, r#"{{"metric":"{name}","type":"counter","value":{v}}}"#);
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, r#"{{"metric":"{name}","type":"gauge","value":{v}}}"#);
            }
            MetricValue::Histogram(h) => match h.summary() {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        concat!(
                            r#"{{"metric":"{}","type":"histogram","count":{},"#,
                            r#""min":{},"max":{},"mean":{:.3},"#,
                            r#""p50":{},"p90":{},"p99":{},"p999":{}}}"#
                        ),
                        name, s.count, s.min, s.max, s.mean, s.p50, s.p90, s.p99, s.p999
                    );
                }
                None => {
                    let _ = writeln!(out, r#"{{"metric":"{name}","type":"histogram","count":0}}"#);
                }
            },
        }
    }
    out
}

/// Renders an aligned human-readable table, names ascending.
pub fn render_table(snapshot: &Snapshot) -> String {
    let width = snapshot
        .entries
        .keys()
        .map(String::len)
        .max()
        .unwrap_or(0)
        .max("metric".len());
    let mut out = String::new();
    let _ = writeln!(out, "{:width$}  {:9}  value", "metric", "type");
    for (name, value) in &snapshot.entries {
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{name:width$}  {:9}  {v}", "counter");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{name:width$}  {:9}  {v}", "gauge");
            }
            MetricValue::Histogram(h) => match h.summary() {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "{name:width$}  {:9}  count={} min={} p50={} p90={} p99={} p999={} max={} mean={:.1}",
                        "histogram", s.count, s.min, s.p50, s.p90, s.p99, s.p999, s.max, s.mean
                    );
                }
                None => {
                    let _ = writeln!(out, "{name:width$}  {:9}  count=0", "histogram");
                }
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("sim.reads.fast").add(3);
        r.gauge("sim.read.fast_ratio_permille").set(750);
        let h = r.histogram("sim.read.latency.fast");
        for v in [2u64, 4, 4, 9] {
            h.record(v);
        }
        r.histogram("sim.read.latency.slow");
        r.snapshot()
    }

    #[test]
    fn jsonl_has_one_sorted_line_per_metric() {
        let out = render_jsonl(&sample());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            r#"{"metric":"sim.read.fast_ratio_permille","type":"gauge","value":750}"#
        );
        assert!(lines[1].starts_with(r#"{"metric":"sim.read.latency.fast","type":"histogram","count":4,"min":2,"max":9,"mean":4.750,"#));
        assert_eq!(
            lines[2],
            r#"{"metric":"sim.read.latency.slow","type":"histogram","count":0}"#
        );
        assert_eq!(
            lines[3],
            r#"{"metric":"sim.reads.fast","type":"counter","value":3}"#
        );
    }

    #[test]
    fn equal_snapshots_render_identically() {
        assert_eq!(render_jsonl(&sample()), render_jsonl(&sample()));
        assert_eq!(render_table(&sample()), render_table(&sample()));
    }

    #[test]
    fn table_mentions_every_metric() {
        let out = render_table(&sample());
        for name in [
            "sim.reads.fast",
            "sim.read.fast_ratio_permille",
            "sim.read.latency.fast",
            "sim.read.latency.slow",
        ] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(out.contains("p999="));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny"), r"x\ny");
        assert_eq!(json_escape("\u{1}"), r"\u0001");
    }
}
