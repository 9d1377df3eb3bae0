//! Metric tables, the result file, and `compare`.
//!
//! The tables here and `BENCHMARK.json` at the repository root name the
//! same metrics with the same units, directions and bounds; a unit test
//! holds the two together.

use std::collections::BTreeMap;
use std::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// End-to-end metrics with the share of the baseline each may worsen by
/// before `compare` (and the driver) call it a regression. Ten runs of one
/// commit on the 2-core VM spread (interquartile range over median) by 4 to
/// 16% on every one of them, so nothing tighter than a quarter would hold.
pub const END_TO_END: [(MetricDef, f64); 6] = [
    (def("get_p50_us", "us", Better::Lower), 0.25),
    (def("put_p50_us", "us", Better::Lower), 0.25),
    (def("get_p95_us", "us", Better::Lower), 0.25),
    (def("put_p95_us", "us", Better::Lower), 0.25),
    (def("sat_ops_per_s", "1/s", Better::Higher), 0.25),
    (def("setup_s", "s", Better::Lower), 0.25),
];

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    def(name, unit, Better::Lower)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    def(name, unit, Better::Higher)
}

/// Per-layer metrics, prefixed by module. README.md says which end-to-end
/// metric, on which workload, each is expected to move.
pub const PER_LAYER: [MetricDef; 55] = [
    hi("crypto.sha256_mb_s", "MB/s"),
    hi("crypto.hmac_64k_mb_s", "MB/s"),
    lo("crypto.hmac_256b_ns", "ns"),
    lo("crypto.pair_key_ns", "ns"),
    lo("crypto.auth_mac_parts_256b_ns", "ns"),
    lo("crypto.auth_open_256b_ns", "ns"),
    hi("mds.gf_mul_mb_s", "MB/s"),
    hi("mds.rs_encode_n6k1_mb_s", "MB/s"),
    hi("mds.rs_encode_n11k6_mb_s", "MB/s"),
    hi("mds.rs_encode_n16k11_mb_s", "MB/s"),
    hi("mds.rs_decode_clean_n11k6_mb_s", "MB/s"),
    hi("mds.rs_decode_err2_n11k6_mb_s", "MB/s"),
    lo("mds.stripe_encode_64k_n11k6_us", "us"),
    lo("mds.stripe_decode_64k_n11k6_us", "us"),
    lo("common.wire_encode_put_256b_ns", "ns"),
    lo("common.wire_decode_put_256b_ns", "ns"),
    lo("common.wire_encode_put_64k_ns", "ns"),
    lo("common.wire_decode_put_64k_ns", "ns"),
    lo("common.shard_of_ns", "ns"),
    lo("common.wire_bytes_copied_per_op", "B"),
    lo("core.inmem_get_us", "us"),
    lo("core.inmem_put_us", "us"),
    hi("core.read_fast_ratio", "ratio"),
    lo("core.exchanges_per_get", "count"),
    lo("core.exchanges_per_put", "count"),
    lo("kv.server.dispatch_query_ns", "ns"),
    lo("kv.server.dispatch_put_256b_ns", "ns"),
    lo("kv.server.dispatch_put_64k_ns", "ns"),
    lo("kv.server.attest_ns", "ns"),
    lo("kv.server.stored_bytes_per_value_byte", "ratio"),
    lo("kv.tcp.seal_request_256b_ns", "ns"),
    lo("kv.tcp.seal_request_64k_ns", "ns"),
    lo("kv.tcp.connect_us", "us"),
    lo("kv.tcp.exchange_p50_us", "us"),
    lo("kv.tcp.exchange_p95_us", "us"),
    lo("kv.tcp.rpc_sum_over_max", "ratio"),
    lo("kv.tcp.unreachable_per_kop", "count"),
    lo("kv.tcp.reconnects", "count"),
    lo("kv.client.self_us", "us"),
    lo("kv.client.get_p99_us", "us"),
    lo("kv.client.put_p99_us", "us"),
    lo("kv.client.max_us", "us"),
    lo("kv.reactor.wakeups_per_op", "count"),
    lo("kv.reactor.events_per_op", "count"),
    hi("kv.reactor.batch_frames_mean", "count"),
    lo("transport.loopback_rtt_us", "us"),
    lo("transport.loopback_64k_us", "us"),
    lo("transport.chaos_added_rtt_us", "us"),
    lo("obs.counter_inc_ns", "ns"),
    lo("obs.histogram_record_ns", "ns"),
    lo("bench.gen_late_p95_us", "us"),
    lo("bench.trace_overhead_permille", "permille"),
    lo("bench.rss_peak_mb", "MB"),
    hi("budget.explained_us", "us"),
    lo("budget.residual_permille", "permille"),
];

/// Formats a float as JSON. Values print with all the digits they were
/// measured with; a non-finite value (a percentile that a failed op pushed
/// to infinity) prints as the largest finite number.
pub fn json_num(v: f64) -> String {
    let v = if v.is_finite() {
        v
    } else {
        f64::MAX.copysign(v)
    };
    format!("{v:?}")
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in table order.
pub fn metrics_json(defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) -> String {
    let mut out = String::from("{");
    for (i, d) in defs.iter().enumerate() {
        let v = values
            .get(d.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#,
            d.name,
            json_num(*v),
            d.unit
        )
        .expect("write to String");
    }
    out + "}"
}

/// A parsed JSON value — just enough for `compare` to read result files.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.space();
        if p.at == p.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing input at byte {}", p.at))
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.space();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut map = BTreeMap::new();
                self.space();
                if self.eat("}") {
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.expect(":")?;
                    map.insert(key, self.value()?);
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(map));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|c| b"+-.eE0123456789".contains(c))
                {
                    self.at += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.at]).map_err(|e| e.to_string())?;
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// Strings in result files are names, units and host facts; the only
    /// escapes the writer produces are `\"` and `\\`.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            match self.s.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    out.push(*self.s.get(self.at + 1).ok_or("unterminated escape")?);
                    self.at += 2;
                }
                Some(c) => {
                    out.push(*c);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// One line of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    /// Share of the baseline by which the metric got worse (negative:
    /// better).
    pub worse_by: f64,
    pub bound: f64,
    pub breach: bool,
}

/// Applies the end-to-end bounds to two result files. `fail_ratio` has no
/// slack: any increase is a regression. A `--quick` result is a smoke
/// test, not a measurement, and is refused.
pub fn compare(base: &Json, new: &Json) -> Result<Vec<Verdict>, String> {
    for (side, doc) in [("baseline", base), ("candidate", new)] {
        if doc.get("quick") != Some(&Json::Bool(false)) {
            return Err(format!("{side} is a --quick result (or not a result file)"));
        }
    }
    let workloads = |doc: &Json| match doc.get("workloads") {
        Some(Json::Obj(m)) => Ok(m.clone()),
        _ => Err("no `workloads` object".to_string()),
    };
    let (base_w, new_w) = (workloads(base)?, workloads(new)?);
    let mut out = Vec::new();
    for (name, b) in &base_w {
        let n = new_w
            .get(name)
            .ok_or(format!("candidate lacks workload {name}"))?;
        let value = |doc: &Json, metric: &str| {
            let v = if metric == "fail_ratio" {
                doc.get(metric)
            } else {
                doc.get("end_to_end")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
            };
            v.and_then(Json::num).ok_or(format!("{name}: no {metric}"))
        };
        for (d, bound) in END_TO_END {
            let (base, new) = (value(b, d.name)?, value(n, d.name)?);
            let worse_by = match d.better {
                Better::Lower => (new - base) / base,
                Better::Higher => (base - new) / base,
            };
            let breach = worse_by > bound;
            out.push(Verdict {
                workload: name.clone(),
                metric: d.name,
                base,
                new,
                worse_by,
                bound,
                breach,
            });
        }
        let (base, new) = (value(b, "fail_ratio")?, value(n, "fail_ratio")?);
        out.push(Verdict {
            workload: name.clone(),
            metric: "fail_ratio",
            base,
            new,
            worse_by: new - base,
            bound: 0.0,
            breach: new > base,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    fn result(quick: bool, get_p50: f64, sat: f64, fail_ratio: f64) -> Json {
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|(d, _)| {
                let v = match d.name {
                    "get_p50_us" => get_p50,
                    "sat_ops_per_s" => sat,
                    _ => 100.0,
                };
                format!(r#""{}": {{"value": {v:?}, "unit": "{}"}}"#, d.name, d.unit)
            })
            .collect();
        let text = format!(
            r#"{{"quick": {quick}, "seed": 1, "workloads": {{"small_repl":
                {{"fail_ratio": {fail_ratio:?}, "end_to_end": {{{}}}}}}}}}"#,
            e2e.join(", ")
        );
        Json::parse(&text).expect("test document parses")
    }

    fn breaches(base: &Json, new: &Json) -> Vec<&'static str> {
        let verdicts = compare(base, new).expect("comparable");
        verdicts
            .iter()
            .filter(|v| v.breach)
            .map(|v| v.metric)
            .collect()
    }

    #[test]
    fn bounds_apply_in_each_metrics_own_direction() {
        let base = result(false, 250.0, 4000.0, 0.0);
        assert!(breaches(&base, &base).is_empty());
        // p50 may rise 25%, not 26%; falling is never a breach.
        assert!(breaches(&base, &result(false, 312.0, 4000.0, 0.0)).is_empty());
        assert_eq!(
            breaches(&base, &result(false, 315.0, 4000.0, 0.0)),
            ["get_p50_us"]
        );
        assert!(breaches(&base, &result(false, 100.0, 4000.0, 0.0)).is_empty());
        // Throughput is better when higher.
        assert!(breaches(&base, &result(false, 250.0, 3010.0, 0.0)).is_empty());
        assert_eq!(
            breaches(&base, &result(false, 250.0, 2990.0, 0.0)),
            ["sat_ops_per_s"]
        );
        assert!(breaches(&base, &result(false, 250.0, 9000.0, 0.0)).is_empty());
    }

    #[test]
    fn any_rise_in_fail_ratio_is_a_breach() {
        let base = result(false, 250.0, 4000.0, 0.0);
        assert_eq!(
            breaches(&base, &result(false, 250.0, 4000.0, 1e-6)),
            ["fail_ratio"]
        );
        let flaky = result(false, 250.0, 4000.0, 0.01);
        assert!(breaches(&flaky, &result(false, 250.0, 4000.0, 0.01)).is_empty());
        assert!(breaches(&flaky, &base).is_empty());
    }

    #[test]
    fn quick_results_and_strangers_are_refused() {
        let (full, quick) = (
            result(false, 250.0, 4000.0, 0.0),
            result(true, 250.0, 4000.0, 0.0),
        );
        assert!(compare(&full, &quick).is_err());
        assert!(compare(&quick, &full).is_err());
        assert!(compare(&full, &Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn json_round_trips_what_the_writer_emits() {
        let doc = Json::parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"y"}} "#).unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")),
            Some(&Json::Str("x\"y".into()))
        );
        assert_eq!(
            Json::parse(&json_str("a\\b\"c")),
            Ok(Json::Str("a\\b\"c".into()))
        );
        assert_eq!(Json::parse(&json_num(0.1 + 0.2)), Ok(Json::Num(0.1 + 0.2)));
        assert_eq!(json_num(f64::INFINITY), format!("{:?}", f64::MAX));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the harness emits. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |item: &Json, key: &str| match item.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let better = |b: Better| {
            if b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (item, spec) in workloads.iter().zip(&SPECS) {
            assert_eq!(text(item, "name"), spec.name);
            assert_eq!(text(item, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, (d, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(item, "name"), d.name);
            assert_eq!(text(item, "unit"), d.unit);
            assert_eq!(text(item, "better"), better(d.better));
            assert_eq!(item.get("bound").and_then(Json::num), Some(*bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, d) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(item, "name"), d.name);
            assert_eq!(text(item, "unit"), d.unit);
            assert_eq!(text(item, "better"), better(d.better));
        }
        assert_eq!(list("paths"), [Json::Str("benchmark".into())]);
    }
}
