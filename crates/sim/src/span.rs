//! Causal span tracing over simulated time.
//!
//! A [`Span`] is a named interval of virtual time with an optional parent,
//! a component label and `key=value` attributes. Spans are the simulator's
//! one record of intervals and causality (counts live in the
//! [`crate::MetricsRegistry`]): they let experiments ask *decomposition*
//! questions ("how long was fabric reconfiguration inside this
//! failover?") and *causality* questions ("did the controller lock the
//! fabric before turning switches?") without grepping log strings.
//!
//! Spans are recorded through the simulator handle
//! ([`crate::Sim::span_start`] / [`crate::Sim::span_end`]).
//!
//! Span taxonomy used across the stack (see DESIGN.md):
//!
//! | name                    | component     | meaning                          |
//! |-------------------------|---------------|----------------------------------|
//! | `failover`              | harness/master| one end-to-end host failover     |
//! | `failover.detection`    | master        | failure to missed-heartbeat call |
//! | `failover.reconfiguration` | master     | plan + fabric execution          |
//! | `failover.remount`      | master        | re-export + client remount       |
//! | `fabric.execute`        | fabric        | one reconfiguration command      |
//! | `fabric.lock` / `fabric.actuate` / `fabric.verify` | fabric | its phases |
//! | `endpoint.export`       | endpoint      | iSCSI target (re-)export         |
//! | `client.remount`        | clientlib     | one client remount cycle         |

use std::collections::HashSet;
use std::rc::Rc;
use std::time::Duration;

use crate::json::Json;
use crate::time::SimTime;

/// Identifier of a recorded span (unique within one [`SpanTracer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw id (1-based; useful in exports).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One span: a named, attributed interval of simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Emitting component (e.g. `"master-0"`, `"fabric"`). Interned:
    /// every span of a component shares one allocation.
    pub component: Rc<str>,
    /// Hierarchical dotted name (e.g. `"failover.reconfiguration"`).
    /// Interned like [`Span::component`].
    pub name: Rc<str>,
    /// Start instant.
    pub start: SimTime,
    /// End instant; `None` while the span is open.
    pub end: Option<SimTime>,
    /// `key=value` attributes in insertion order (later wins on lookup).
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// Elapsed time, if the span has ended.
    pub fn duration(&self) -> Option<Duration> {
        self.end.map(|e| e.duration_since(self.start))
    }

    /// True while the span has not ended.
    pub fn is_open(&self) -> bool {
        self.end.is_none()
    }

    /// Most recent value set for `key`.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::u64(self.id.0)),
            ("parent", self.parent.map_or(Json::Null, |p| Json::u64(p.0))),
            ("component", Json::str(&*self.component)),
            ("name", Json::str(&*self.name)),
            ("start_ns", Json::u64(self.start.as_nanos())),
            (
                "end_ns",
                self.end.map_or(Json::Null, |e| Json::u64(e.as_nanos())),
            ),
            (
                "duration_ns",
                self.duration().map_or(Json::Null, |d| {
                    Json::u64(d.as_nanos().min(u128::from(u64::MAX)) as u64)
                }),
            ),
            (
                "attrs",
                Json::obj(self.attrs.iter().map(|(k, v)| (k.clone(), Json::str(v)))),
            ),
        ])
    }
}

/// Recorder of all spans in one simulation, in start order.
///
/// # Examples
///
/// ```
/// use ustore_sim::{SimTime, SpanTracer};
///
/// let mut t = SpanTracer::new();
/// let root = t.start(SimTime::from_millis(0), "master", "failover", None);
/// let child = t.start(SimTime::from_millis(1), "fabric", "fabric.execute", Some(root));
/// t.end(SimTime::from_millis(5), child);
/// t.end(SimTime::from_millis(9), root);
/// assert_eq!(t.children(root).count(), 1);
/// assert_eq!(t.get(child).unwrap().duration().unwrap().as_millis(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpanTracer {
    spans: Vec<Span>, // span with id N lives at index N-1
    /// Still-open spans in start order; keeps `find_open*` proportional to
    /// the number of *open* spans rather than every span ever recorded.
    open: Vec<SpanId>,
    /// Component/name string pool: each distinct label allocates once.
    strings: HashSet<Rc<str>>,
}

impl SpanTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, s: &str) -> Rc<str> {
        if let Some(rc) = self.strings.get(s) {
            return rc.clone();
        }
        let rc: Rc<str> = Rc::from(s);
        self.strings.insert(rc.clone());
        rc
    }

    /// Starts a span at `at`; returns its id.
    pub fn start(
        &mut self,
        at: SimTime,
        component: &str,
        name: &str,
        parent: Option<SpanId>,
    ) -> SpanId {
        let id = SpanId(self.spans.len() as u64 + 1);
        let component = self.intern(component);
        let name = self.intern(name);
        self.spans.push(Span {
            id,
            parent,
            component,
            name,
            start: at,
            end: None,
            attrs: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Ends a span at `at`. Ending twice keeps the first end (idempotent),
    /// so "close if still open" call sites need no guard.
    pub fn end(&mut self, at: SimTime, id: SpanId) {
        if let Some(span) = self.get_mut(id) {
            if span.end.is_none() {
                span.end = Some(at);
                // Spans usually close LIFO, so scan the open list from the
                // back; `remove` keeps the remaining list in start order.
                if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
                    self.open.remove(pos);
                }
            }
        }
    }

    /// Attaches (or overrides) a `key=value` attribute.
    pub fn set_attr(&mut self, id: SpanId, key: &str, value: impl Into<String>) {
        if let Some(span) = self.get_mut(id) {
            span.attrs.push((key.to_owned(), value.into()));
        }
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        self.spans.get_mut(id.0 as usize - 1)
    }

    /// The span with this id.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.spans.get(id.0 as usize - 1)
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All spans named `name`, in start order.
    pub fn by_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| &*s.name == name)
    }

    /// Direct children of `parent`, in start order.
    pub fn children(&self, parent: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(parent))
    }

    /// The most recently started span named `name` that is still open.
    ///
    /// This is how loosely coupled components join an enclosing operation:
    /// e.g. the fabric runtime parents its `fabric.execute` span under the
    /// failover `failover.reconfiguration` span if one is in flight.
    pub fn find_open(&self, name: &str) -> Option<SpanId> {
        self.open
            .iter()
            .rev()
            .map(|&id| &self.spans[id.0 as usize - 1])
            .find(|s| &*s.name == name)
            .map(|s| s.id)
    }

    /// Like [`find_open`](Self::find_open), additionally requiring an
    /// attribute match (for concurrent same-named operations).
    pub fn find_open_by(&self, name: &str, key: &str, value: &str) -> Option<SpanId> {
        self.open
            .iter()
            .rev()
            .map(|&id| &self.spans[id.0 as usize - 1])
            .find(|s| &*s.name == name && s.attr(key) == Some(value))
            .map(|s| s.id)
    }

    /// Whether every span named `before` ended no later than any span named
    /// `after` started (vacuously true when either is absent). The span
    /// form of trace-message causality assertions.
    pub fn all_before(&self, before: &str, after: &str) -> bool {
        let latest_end = self.by_name(before).filter_map(|s| s.end).max();
        let earliest_start = self.by_name(after).map(|s| s.start).min();
        match (latest_end, earliest_start) {
            (Some(e), Some(s)) => e <= s,
            _ => true,
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Flat JSON export: an array of span objects in start order.
    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().map(Span::to_json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn nesting_and_durations() {
        let mut t = SpanTracer::new();
        let root = t.start(ms(0), "m", "failover", None);
        let a = t.start(ms(0), "m", "failover.detection", Some(root));
        t.end(ms(3), a);
        let b = t.start(ms(3), "m", "failover.reconfiguration", Some(root));
        let bb = t.start(ms(3), "f", "fabric.execute", Some(b));
        t.end(ms(5), bb);
        t.end(ms(5), b);
        t.end(ms(9), root);
        assert_eq!(t.len(), 4);
        assert_eq!(t.children(root).count(), 2);
        let kids: Vec<_> = t.children(root).map(|s| s.name.to_string()).collect();
        assert_eq!(kids, ["failover.detection", "failover.reconfiguration"]);
        assert_eq!(
            t.get(root).unwrap().duration(),
            Some(Duration::from_millis(9))
        );
        assert_eq!(t.get(bb).unwrap().parent, Some(b));
    }

    #[test]
    fn end_is_idempotent_and_attrs_override() {
        let mut t = SpanTracer::new();
        let s = t.start(ms(1), "c", "op", None);
        t.end(ms(2), s);
        t.end(ms(7), s);
        assert_eq!(t.get(s).unwrap().end, Some(ms(2)));
        t.set_attr(s, "k", "v1");
        t.set_attr(s, "k", "v2");
        assert_eq!(t.get(s).unwrap().attr("k"), Some("v2"));
        assert_eq!(t.get(s).unwrap().attr("missing"), None);
    }

    #[test]
    fn find_open_prefers_latest_and_matches_attrs() {
        let mut t = SpanTracer::new();
        let a = t.start(ms(0), "m", "failover", None);
        t.set_attr(a, "host", "h1");
        let b = t.start(ms(1), "m", "failover", None);
        t.set_attr(b, "host", "h2");
        assert_eq!(t.find_open("failover"), Some(b));
        assert_eq!(t.find_open_by("failover", "host", "h1"), Some(a));
        t.end(ms(2), b);
        assert_eq!(t.find_open("failover"), Some(a));
        t.end(ms(2), a);
        assert_eq!(t.find_open("failover"), None);
    }

    #[test]
    fn causality_helper() {
        let mut t = SpanTracer::new();
        let l = t.start(ms(1), "f", "fabric.lock", None);
        t.end(ms(1), l);
        let a = t.start(ms(2), "f", "fabric.actuate", None);
        t.end(ms(4), a);
        assert!(t.all_before("fabric.lock", "fabric.actuate"));
        assert!(!t.all_before("fabric.actuate", "fabric.lock"));
        assert!(t.all_before("fabric.lock", "no.such.span"), "vacuous");
    }

    #[test]
    fn json_exports() {
        let mut t = SpanTracer::new();
        let root = t.start(ms(0), "m", "failover", None);
        t.set_attr(root, "victim", "h0");
        let c = t.start(ms(1), "f", "fabric.execute", Some(root));
        t.end(ms(2), c);
        t.end(ms(3), root);
        let flat = t.to_json().to_string();
        assert!(flat.starts_with('['));
        assert!(flat.contains(r#""name":"failover""#));
        assert!(flat.contains(r#""victim":"h0""#));
        let arr = t.to_json();
        let spans = arr.as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(
            spans[1].get("parent").and_then(Json::as_f64),
            Some(root.raw() as f64)
        );
        assert_eq!(
            spans[1].get("name").and_then(Json::as_str),
            Some("fabric.execute")
        );
        assert_eq!(
            spans[0].get("duration_ns").and_then(Json::as_f64),
            Some(3_000_000.0)
        );
    }

    #[test]
    fn open_span_exports_null_end() {
        let mut t = SpanTracer::new();
        t.start(ms(5), "c", "op", None);
        let j = t.to_json().to_string();
        assert!(j.contains(r#""end_ns":null"#));
        assert!(j.contains(r#""duration_ns":null"#));
    }
}
