//! Reads the program's own telemetry exports: the metrics-registry JSON
//! every world writes, and the scraped time-series CSV.
//!
//! Both engines end a run with the same artefacts (the sharded engine
//! hands them out only as strings), so every per-layer metric is computed
//! from these strings, the same way on either engine.

use std::collections::BTreeMap;

/// Histogram facets the registry export carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: f64,
    /// 99th percentile, in the histogram's unit.
    pub p99: f64,
}

/// A metrics registry folded over every world and component.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, f64>,
    gauges: Vec<(String, String, f64)>,
    hists: Vec<(String, String, HistSummary)>,
}

impl Registry {
    /// Adds one world's registry export (`MetricsRegistry::to_json`).
    ///
    /// # Panics
    ///
    /// Panics if `json` is not a registry export.
    pub fn add_json(&mut self, json: &str) {
        let root = Parser::new(json).parse();
        for (key, v) in root.field("counters").entries() {
            let (_, name) = split_key(key);
            *self.counters.entry(name.to_string()).or_default() += v.num();
        }
        for (key, v) in root.field("gauges").entries() {
            let (c, n) = split_key(key);
            self.gauges.push((c.to_string(), n.to_string(), v.num()));
        }
        for (key, v) in root.field("histograms").entries() {
            let (c, n) = split_key(key);
            let summary = HistSummary {
                count: v.field("count").num(),
                p99: v.field("p99").num(),
            };
            self.hists.push((c.to_string(), n.to_string(), summary));
        }
    }

    /// A counter summed over every component and world (0 if absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Largest value of a gauge over every component and world.
    pub fn gauge_max(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .filter(|(_, n, _)| n == name)
            .map(|&(_, _, v)| v)
            .reduce(f64::max)
    }

    /// Sum of a gauge over every component and world.
    pub fn gauge_sum(&self, name: &str) -> f64 {
        self.gauges
            .iter()
            .filter(|(_, n, _)| n == name)
            .map(|&(_, _, v)| v)
            .sum()
    }

    /// Sample-weighted mean of the per-component 99th percentiles of a
    /// histogram (0 without samples). Exports carry only a few facets per
    /// component, so the components' histograms cannot be merged exactly;
    /// this is the tail a typical sample's component sees.
    pub fn hist_p99(&self, name: &str) -> f64 {
        let (mut weighted, mut count) = (0.0, 0.0);
        for (_, _, h) in self.hists.iter().filter(|(_, n, _)| n == name) {
            weighted += h.p99 * h.count;
            count += h.count;
        }
        if count > 0.0 {
            weighted / count
        } else {
            0.0
        }
    }
}

fn split_key(key: &str) -> (&str, &str) {
    key.rsplit_once('/').unwrap_or(("", key))
}

/// Per-component change of one series between two instants of a scrape
/// CSV (`component,series,t_s,value`): for each component, the first
/// sample at or after `from_s` and the last at or before `to_s`, as
/// `(component, value change, seconds between the samples)`.
pub fn csv_deltas(csv: &str, series: &str, from_s: f64, to_s: f64) -> Vec<(String, f64, f64)> {
    // Per component: the first and last (time, value) in the window.
    type Sample = (f64, f64);
    let mut spans: BTreeMap<&str, (Sample, Sample)> = BTreeMap::new();
    for line in csv.lines().skip(1) {
        let mut cols = line.split(',');
        let (Some(c), Some(s), Some(t), Some(v)) =
            (cols.next(), cols.next(), cols.next(), cols.next())
        else {
            continue;
        };
        if s != series {
            continue;
        }
        let (Ok(t), Ok(v)) = (t.parse::<f64>(), v.parse::<f64>()) else {
            continue;
        };
        if t < from_s || t > to_s {
            continue;
        }
        spans
            .entry(c)
            .and_modify(|(first, last)| {
                if t < first.0 {
                    *first = (t, v);
                }
                if t > last.0 {
                    *last = (t, v);
                }
            })
            .or_insert(((t, v), (t, v)));
    }
    spans
        .into_iter()
        .map(|(c, (first, last))| (c.to_string(), last.1 - first.1, last.0 - first.0))
        .collect()
}

/// A parsed JSON value (just what registry exports use).
#[derive(Debug)]
enum Value {
    Null,
    Bool,
    Num(f64),
    Str,
    Arr,
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn field(&self, key: &str) -> &Value {
        match self {
            Value::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&Value::Null),
            _ => &Value::Null,
        }
    }

    fn entries(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(pairs) => pairs,
            _ => &[],
        }
    }

    fn num(&self) -> f64 {
        match self {
            Value::Num(v) => *v,
            _ => 0.0,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn parse(&mut self) -> Value {
        let v = self.value();
        self.ws();
        assert_eq!(self.i, self.s.len(), "trailing bytes in registry export");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&b), "malformed registry export");
        self.i += 1;
    }

    fn value(&mut self) -> Value {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Value::Obj(pairs);
                }
                loop {
                    self.ws();
                    let k = self.string();
                    self.eat(b':');
                    pairs.push((k, self.value()));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        _ => break,
                    }
                }
                self.eat(b'}');
                Value::Obj(pairs)
            }
            Some(b'[') => {
                self.i += 1;
                self.ws();
                if self.s.get(self.i) != Some(&b']') {
                    loop {
                        self.value();
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            _ => break,
                        }
                    }
                }
                self.eat(b']');
                Value::Arr
            }
            Some(b'"') => {
                self.string();
                Value::Str
            }
            Some(b't') => self.word("true", Value::Bool),
            Some(b'f') => self.word("false", Value::Bool),
            Some(b'n') => self.word("null", Value::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Value::Num(text.parse().expect("malformed number in registry export"))
            }
        }
    }

    fn word(&mut self, w: &str, v: Value) -> Value {
        assert!(
            self.s[self.i..].starts_with(w.as_bytes()),
            "malformed registry export"
        );
        self.i += w.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).expect("utf-8 string"),
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                .expect("ascii escape");
                            self.i += 4;
                            let c = char::from_u32(u32::from_str_radix(hex, 16).expect("hex"))
                                .unwrap_or('?');
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                _ => out.push(b),
            }
        }
        panic!("unterminated string in registry export");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_registry_exports() {
        let mut r = Registry::default();
        r.add_json(
            r#"{"counters":{"a/net.sent":3,"b/net.sent":4},"gauges":{"d0/power.energy_j":2.5},
            "histograms":{"x/lat":{"count":1,"min":0,"max":0,"mean":0.0,"p50":1,"p90":2,"p99":10},
            "y/lat":{"count":3,"min":0,"max":0,"mean":0.0,"p50":1,"p90":2,"p99":30}}}"#,
        );
        r.add_json(r#"{"counters":{"c/net.sent":1},"gauges":{},"histograms":{}}"#);
        assert_eq!(r.counter("net.sent"), 8.0);
        assert_eq!(r.counter("absent"), 0.0);
        assert_eq!(r.gauge_max("power.energy_j"), Some(2.5));
        assert_eq!(r.hist_p99("lat"), 25.0);
    }

    #[test]
    fn csv_deltas_take_the_window() {
        let csv = "component,series,t_s,value\n\
                   d0,power.energy_j,1.0,10\nd0,power.energy_j,2.0,15\nd0,power.energy_j,3.0,30\n\
                   d1,power.energy_j,2.0,1\nd1,other,2.0,99\n";
        let d = csv_deltas(csv, "power.energy_j", 2.0, 3.0);
        assert_eq!(
            d,
            vec![("d0".to_string(), 15.0, 1.0), ("d1".to_string(), 0.0, 0.0)]
        );
    }
}
