//! Standard-format telemetry exporters.
//!
//! Bridges the in-simulator observability types to tooling people already
//! have open:
//!
//! - [`prometheus`] renders a [`MetricsRegistry`] in Prometheus exposition
//!   text format (`promtool check metrics` clean; scrapeable if served);
//! - [`chrome_trace`] renders a [`SpanTracer`] as Chrome trace-event JSON,
//!   loadable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`
//!   to see the failover span tree on a timeline;
//! - [`chrome_trace_with_wallclock`] additionally renders the wall-clock
//!   profiler's per-thread phase timelines as a second Perfetto process, so
//!   sim-time spans and engine wall time sit side by side in one file;
//! - [`prometheus_prof`] renders a profiler snapshot (and optional traffic
//!   matrix) under the distinct `ustore_prof_` prefix.
//!
//! The sim-time outputs are byte-stable for identical runs: the registry
//! keeps its keys sorted, and the trace exporter assigns track ids from the
//! sorted component list rather than encounter order. Wall-clock outputs
//! are deterministic in *shape* (track order, metric order) but not in
//! values — they measure the host machine.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::obs::MetricsRegistry;
use crate::prof::{Phase, ProfSnapshot, TrafficSnapshot};
use crate::reqtrace::TraceSnapshot;
use crate::span::{Span, SpanTracer};

/// Maps a dotted metric id to a Prometheus-legal name:
/// `disk.latency_ns` on component `disk3` → `ustore_disk_latency_ns`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("ustore_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` the way Prometheus expects (always with enough digits
/// to round-trip; integral values render without an exponent).
fn prom_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // 3 -> "3.0": keeps gauges visibly float-typed
    } else {
        format!("{v}")
    }
}

/// Renders the registry in Prometheus exposition text format.
///
/// Counters and gauges become their native types; histograms become
/// summaries with `quantile` labels plus `_sum`/`_count` and exact-bound
/// `_min`/`_max` gauges (bucket-midpoint quantiles clamp to the observed
/// range, so the exported tails never overstate the data — see
/// `Histogram::quantile`). The `(component, name)` key splits into the
/// metric name and a `component` label so one `# TYPE` line covers every
/// instance of a series.
///
/// # Examples
///
/// ```
/// use ustore_sim::{export, MetricsRegistry};
///
/// let mut m = MetricsRegistry::new();
/// m.counter_add("disk0", "disk.reads", 3);
/// let text = export::prometheus(&m);
/// assert!(text.contains("# TYPE ustore_disk_reads counter"));
/// assert!(text.contains("ustore_disk_reads{component=\"disk0\"} 3"));
/// ```
pub fn prometheus(metrics: &MetricsRegistry) -> String {
    let mut out = String::new();

    // Regroup (component, name) -> name -> [(component, line value)] so each
    // metric gets exactly one # TYPE header. BTreeMap keeps output sorted.
    let mut counters: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
    for (c, n, v) in metrics.counters() {
        counters.entry(n).or_default().push((c, v));
    }
    for (name, series) in &counters {
        let pname = prom_name(name);
        out.push_str(&format!("# TYPE {pname} counter\n"));
        for (component, v) in series {
            out.push_str(&format!(
                "{pname}{{component=\"{}\"}} {v}\n",
                prom_label(component)
            ));
        }
    }

    let mut gauges: BTreeMap<&str, Vec<(&str, f64)>> = BTreeMap::new();
    for (c, n, v) in metrics.gauges() {
        gauges.entry(n).or_default().push((c, v));
    }
    for (name, series) in &gauges {
        let pname = prom_name(name);
        out.push_str(&format!("# TYPE {pname} gauge\n"));
        for (component, v) in series {
            out.push_str(&format!(
                "{pname}{{component=\"{}\"}} {}\n",
                prom_label(component),
                prom_f64(*v)
            ));
        }
    }

    let mut hists: BTreeMap<&str, Vec<(&str, &crate::metrics::Histogram)>> = BTreeMap::new();
    for (c, n, h) in metrics.histograms() {
        hists.entry(n).or_default().push((c, h));
    }
    for (name, series) in &hists {
        let pname = prom_name(name);
        out.push_str(&format!("# TYPE {pname} summary\n"));
        for (component, h) in series {
            let label = prom_label(component);
            for q in [0.5, 0.9, 0.99, 0.999] {
                out.push_str(&format!(
                    "{pname}{{component=\"{label}\",quantile=\"{q}\"}} {}\n",
                    h.quantile(q).unwrap_or(0)
                ));
            }
            out.push_str(&format!(
                "{pname}_sum{{component=\"{label}\"}} {}\n",
                h.sum()
            ));
            out.push_str(&format!(
                "{pname}_count{{component=\"{label}\"}} {}\n",
                h.count()
            ));
        }
        // Exact observed bounds ride along as gauges: summaries have no
        // native min/max, and midpoint quantiles alone can hide tails.
        for suffix in ["min", "max"] {
            out.push_str(&format!("# TYPE {pname}_{suffix} gauge\n"));
            for (component, h) in series {
                let v = match suffix {
                    "min" => h.min().unwrap_or(0),
                    _ => h.max().unwrap_or(0),
                };
                out.push_str(&format!(
                    "{pname}_{suffix}{{component=\"{}\"}} {v}\n",
                    prom_label(component)
                ));
            }
        }
    }
    out
}

/// Renders the span log as Chrome trace-event JSON
/// (`{"traceEvents": [...]}`), loadable in Perfetto or `chrome://tracing`.
///
/// Mapping: one process (`pid` 1), one track (`tid`) per component in
/// sorted order, named via `thread_name` metadata events. Closed spans are
/// complete events (`"ph": "X"`) with microsecond `ts`/`dur`; still-open
/// spans are begin events (`"ph": "B"`) so a crash mid-operation is visible
/// as an unterminated slice. Span id, parent and attributes land in
/// `args`, so clicking a failover slice shows the victim host.
pub fn chrome_trace(spans: &SpanTracer) -> Json {
    let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans.spans() {
        let next = tids.len() as u64 + 1;
        tids.entry(&*s.component).or_insert(next);
    }
    // Re-number by sorted component name for byte-stable output.
    for (i, (_, tid)) in tids.iter_mut().enumerate() {
        *tid = i as u64 + 1;
    }

    let mut events = Vec::new();
    for (component, tid) in &tids {
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(1)),
            ("tid", Json::u64(*tid)),
            ("args", Json::obj([("name", Json::str(*component))])),
        ]));
    }
    for s in spans.spans() {
        events.push(span_event(s, tids[&*s.component]));
    }
    Json::obj([("traceEvents", Json::arr(events))])
}

/// Renders the span log plus the wall-clock profiler's thread timelines as
/// one Chrome trace-event document with two clock domains:
///
/// - `pid` 1 (`sim-time`): the [`chrome_trace`] export — spans positioned
///   by simulated time;
/// - `pid` 2 (`wall-clock`): one track per engine thread (shard workers,
///   coordinator, classic engine), with `execute` / `barrier_wait` / ...
///   slices positioned by monotonic wall time since profiling started.
///
/// The two domains share one timeline axis in Perfetto but must not be
/// compared against each other — a sim microsecond is not a wall
/// microsecond. Tracks are ordered by sorted label so the layout is stable
/// across runs even though the slice values are not. Each track's
/// `thread_name` metadata carries a `dropped_slices` arg when the per-track
/// slice cap was hit.
pub fn chrome_trace_with_wallclock(spans: &SpanTracer, prof: &ProfSnapshot) -> Json {
    let base = chrome_trace(spans);
    let mut events: Vec<Json> = base
        .get("traceEvents")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();

    for (pid, name) in [(1u64, "sim-time"), (2u64, "wall-clock")] {
        events.push(Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(pid)),
            ("tid", Json::u64(0)),
            ("args", Json::obj([("name", Json::str(name))])),
        ]));
    }

    // Stable track order: sort by label (labels are unique per registration
    // in practice; ties keep registration order via stable sort).
    let mut order: Vec<usize> = (0..prof.tracks.len()).collect();
    order.sort_by(|&a, &b| prof.tracks[a].label.cmp(&prof.tracks[b].label));
    for (i, &t) in order.iter().enumerate() {
        let track = &prof.tracks[t];
        let tid = i as u64 + 1;
        let mut args = Json::obj([("name", Json::str(&*track.label))]);
        if track.dropped > 0 {
            args.insert("dropped_slices", Json::u64(track.dropped));
        }
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(2)),
            ("tid", Json::u64(tid)),
            ("args", args),
        ]));
        for s in &track.slices {
            let mut ev = Json::obj([
                ("name", Json::str(s.phase.name())),
                ("cat", Json::str("wallprof")),
                ("ph", Json::str("X")),
                ("ts", Json::f64(s.start_ns as f64 / 1000.0)),
                ("dur", Json::f64(s.dur_ns as f64 / 1000.0)),
                ("pid", Json::u64(2)),
                ("tid", Json::u64(tid)),
            ]);
            if s.world != usize::MAX {
                ev.insert("args", Json::obj([("world", Json::u64(s.world as u64))]));
            }
            events.push(ev);
        }
    }
    Json::obj([("traceEvents", Json::arr(events))])
}

/// Renders the span log plus the request tracer's slowest-request
/// exemplars as one Chrome trace-event document:
///
/// - `pid` 1 (`sim-time`): the [`chrome_trace`] export;
/// - `pid` 3 (`requests`): one track per exemplar, slowest first. Each
///   track holds a root `request` slice spanning the full TTFB with the
///   per-stage segments nested inside it (both in simulated time, so the
///   exemplars line up with any failover spans on `pid` 1). A final
///   `annotations` track carries cluster events (watchdog escalations) as
///   instant markers.
///
/// Track order and naming are deterministic: exemplars are already sorted
/// by `(ttfb, id)` in the snapshot.
pub fn chrome_trace_with_requests(spans: &SpanTracer, trace: &TraceSnapshot) -> Json {
    let base = chrome_trace(spans);
    let mut events: Vec<Json> = base
        .get("traceEvents")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();

    for (pid, name) in [(1u64, "sim-time"), (3u64, "requests")] {
        events.push(Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(pid)),
            ("tid", Json::u64(0)),
            ("args", Json::obj([("name", Json::str(name))])),
        ]));
    }

    for (i, r) in trace.exemplars.iter().enumerate() {
        let tid = i as u64 + 1;
        let label = format!(
            "req {} ({}, {:.2} ms{})",
            r.id,
            r.kind.name(),
            r.ttfb_ns as f64 / 1e6,
            if r.cold { ", cold" } else { "" }
        );
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(3)),
            ("tid", Json::u64(tid)),
            ("args", Json::obj([("name", Json::str(label))])),
        ]));
        events.push(Json::obj([
            ("name", Json::str("request")),
            ("cat", Json::str("reqtrace")),
            ("ph", Json::str("X")),
            ("ts", Json::f64(r.start_ns as f64 / 1000.0)),
            ("dur", Json::f64(r.ttfb_ns as f64 / 1000.0)),
            ("pid", Json::u64(3)),
            ("tid", Json::u64(tid)),
            (
                "args",
                Json::obj([
                    ("id", Json::u64(r.id)),
                    ("kind", Json::str(r.kind.name())),
                    ("attempts", Json::u64(u64::from(r.attempts))),
                    ("cold", Json::Bool(r.cold)),
                    ("dominant", Json::str(r.dominant().name())),
                ]),
            ),
        ]));
        for seg in &r.segments {
            events.push(Json::obj([
                ("name", Json::str(seg.stage.name())),
                ("cat", Json::str("reqtrace")),
                ("ph", Json::str("X")),
                ("ts", Json::f64(seg.start_ns as f64 / 1000.0)),
                ("dur", Json::f64(seg.dur_ns as f64 / 1000.0)),
                ("pid", Json::u64(3)),
                ("tid", Json::u64(tid)),
            ]));
        }
    }

    if !trace.annotations.is_empty() {
        let tid = trace.exemplars.len() as u64 + 1;
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(3)),
            ("tid", Json::u64(tid)),
            ("args", Json::obj([("name", Json::str("annotations"))])),
        ]));
        for (ns, label) in &trace.annotations {
            events.push(Json::obj([
                ("name", Json::str(label.as_str())),
                ("cat", Json::str("reqtrace")),
                ("ph", Json::str("i")),
                ("s", Json::str("t")),
                ("ts", Json::f64(*ns as f64 / 1000.0)),
                ("pid", Json::u64(3)),
                ("tid", Json::u64(tid)),
            ]));
        }
    }
    Json::obj([("traceEvents", Json::arr(events))])
}

/// Renders a profiler snapshot (and optional cross-world traffic matrix) in
/// Prometheus exposition format under the `ustore_prof_` prefix, disjoint
/// from the sim-time `ustore_` namespace so wall-clock series can never be
/// mistaken for simulated telemetry.
///
/// Phase costs become `ustore_prof_phase_seconds{world,phase}` counters
/// (plus `_calls`); epoch statistics become per-world counters and an
/// `events_per_epoch` summary; the traffic matrix becomes
/// `ustore_prof_cross_messages{src,dst}` with slack gauges.
pub fn prometheus_prof(prof: &ProfSnapshot, traffic: Option<&TrafficSnapshot>) -> String {
    let mut out = String::new();

    out.push_str("# TYPE ustore_prof_phase_seconds counter\n");
    for w in &prof.worlds {
        for p in Phase::ALL {
            out.push_str(&format!(
                "ustore_prof_phase_seconds{{world=\"{}\",phase=\"{}\"}} {}\n",
                w.world,
                p.name(),
                prom_f64(w.phase_ns[p as usize] as f64 / 1e9)
            ));
        }
    }
    out.push_str("# TYPE ustore_prof_phase_calls counter\n");
    for w in &prof.worlds {
        for p in Phase::ALL {
            out.push_str(&format!(
                "ustore_prof_phase_calls{{world=\"{}\",phase=\"{}\"}} {}\n",
                w.world,
                p.name(),
                w.phase_calls[p as usize]
            ));
        }
    }
    type WorldGet = fn(&crate::prof::WorldProf) -> u64;
    let world_counters: [(&str, WorldGet); 3] = [
        ("epochs", |w| w.epochs),
        ("idle_epochs", |w| w.idle_epochs),
        ("events", |w| w.events),
    ];
    for (name, get) in world_counters {
        out.push_str(&format!("# TYPE ustore_prof_{name} counter\n"));
        for w in &prof.worlds {
            out.push_str(&format!(
                "ustore_prof_{name}{{world=\"{}\"}} {}\n",
                w.world,
                get(w)
            ));
        }
    }
    out.push_str("# TYPE ustore_prof_barrier_wait_fraction gauge\n");
    for w in &prof.worlds {
        out.push_str(&format!(
            "ustore_prof_barrier_wait_fraction{{world=\"{}\"}} {}\n",
            w.world,
            prom_f64(w.barrier_fraction())
        ));
    }
    out.push_str("# TYPE ustore_prof_events_per_epoch summary\n");
    for w in &prof.worlds {
        let h = &w.events_per_epoch;
        for q in [0.5, 0.9, 0.99, 0.999] {
            out.push_str(&format!(
                "ustore_prof_events_per_epoch{{world=\"{}\",quantile=\"{q}\"}} {}\n",
                w.world,
                h.quantile(q).unwrap_or(0)
            ));
        }
        out.push_str(&format!(
            "ustore_prof_events_per_epoch_sum{{world=\"{}\"}} {}\n",
            w.world,
            h.sum()
        ));
        out.push_str(&format!(
            "ustore_prof_events_per_epoch_count{{world=\"{}\"}} {}\n",
            w.world,
            h.count()
        ));
    }

    out.push_str("# TYPE ustore_prof_sync_epochs counter\n");
    out.push_str(&format!("ustore_prof_sync_epochs {}\n", prof.epochs));
    out.push_str("# TYPE ustore_prof_idle_jump_epochs counter\n");
    out.push_str(&format!(
        "ustore_prof_idle_jump_epochs {}\n",
        prof.idle_jump_epochs
    ));
    out.push_str("# TYPE ustore_prof_sim_seconds_advanced counter\n");
    out.push_str(&format!(
        "ustore_prof_sim_seconds_advanced {}\n",
        prom_f64(prof.advance_ns_total as f64 / 1e9)
    ));
    if let Some(u) = prof.lookahead_utilization() {
        out.push_str("# TYPE ustore_prof_lookahead_utilization gauge\n");
        out.push_str(&format!(
            "ustore_prof_lookahead_utilization {}\n",
            prom_f64(u)
        ));
    }

    if let Some(t) = traffic {
        out.push_str("# TYPE ustore_prof_cross_messages counter\n");
        for c in &t.cells {
            out.push_str(&format!(
                "ustore_prof_cross_messages{{src=\"{}\",dst=\"{}\"}} {}\n",
                c.src, c.dst, c.messages
            ));
        }
        out.push_str("# TYPE ustore_prof_cross_slack_min_ns gauge\n");
        for c in &t.cells {
            out.push_str(&format!(
                "ustore_prof_cross_slack_min_ns{{src=\"{}\",dst=\"{}\"}} {}\n",
                c.src, c.dst, c.min_slack_ns
            ));
        }
        out.push_str("# TYPE ustore_prof_cross_slack_mean_ns gauge\n");
        for c in &t.cells {
            out.push_str(&format!(
                "ustore_prof_cross_slack_mean_ns{{src=\"{}\",dst=\"{}\"}} {}\n",
                c.src,
                c.dst,
                prom_f64(c.mean_slack_ns())
            ));
        }
    }
    out
}

fn span_event(s: &Span, tid: u64) -> Json {
    let ts_us = s.start.as_nanos() as f64 / 1000.0;
    let mut args = Json::obj([("span_id", Json::u64(s.id.raw()))]);
    if let Some(p) = s.parent {
        args.insert("parent_span_id", Json::u64(p.raw()));
    }
    for (k, v) in &s.attrs {
        args.insert(k.clone(), Json::str(v));
    }
    let mut ev = Json::obj([
        ("name", Json::str(&*s.name)),
        ("cat", Json::str(&*s.component)),
    ]);
    match s.end {
        Some(end) => {
            let dur_us = end.duration_since(s.start).as_nanos() as f64 / 1000.0;
            ev.insert("ph", Json::str("X"));
            ev.insert("ts", Json::f64(ts_us));
            ev.insert("dur", Json::f64(dur_us));
        }
        None => {
            ev.insert("ph", Json::str("B"));
            ev.insert("ts", Json::f64(ts_us));
        }
    }
    ev.insert("pid", Json::u64(1));
    ev.insert("tid", Json::u64(tid));
    ev.insert("args", args);
    ev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn sample_registry() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("disk0", "disk.reads", 7);
        m.counter_add("disk1", "disk.reads", 9);
        m.gauge_set("disk0", "power.watts", 5.1);
        m.observe("disk0", "disk.latency_ns", 10_000_000);
        m.observe("disk0", "disk.latency_ns", 14_000_000);
        m
    }

    #[test]
    fn prometheus_groups_components_under_one_type_line() {
        let text = prometheus(&sample_registry());
        assert_eq!(
            text.matches("# TYPE ustore_disk_reads counter").count(),
            1,
            "one TYPE line for both disks"
        );
        assert!(text.contains("ustore_disk_reads{component=\"disk0\"} 7"));
        assert!(text.contains("ustore_disk_reads{component=\"disk1\"} 9"));
        assert!(text.contains("# TYPE ustore_power_watts gauge"));
        assert!(text.contains("ustore_power_watts{component=\"disk0\"} 5.1"));
    }

    #[test]
    fn prometheus_summary_exposes_exact_bounds() {
        let text = prometheus(&sample_registry());
        assert!(text.contains("# TYPE ustore_disk_latency_ns summary"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("ustore_disk_latency_ns_sum{component=\"disk0\"} 24000000"));
        assert!(text.contains("ustore_disk_latency_ns_count{component=\"disk0\"} 2"));
        assert!(text.contains("ustore_disk_latency_ns_min{component=\"disk0\"} 10000000"));
        assert!(text.contains("ustore_disk_latency_ns_max{component=\"disk0\"} 14000000"));
    }

    #[test]
    fn prometheus_lines_are_well_formed() {
        let text = prometheus(&sample_registry());
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE ustore_"), "bad comment: {line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("name value");
            assert!(series.starts_with("ustore_"), "bad name: {line}");
            assert!(series.contains("{component=\""), "bad labels: {line}");
            assert!(value.parse::<f64>().is_ok(), "bad value: {line}");
        }
    }

    #[test]
    fn prometheus_is_byte_stable() {
        let a = prometheus(&sample_registry());
        let b = prometheus(&sample_registry().snapshot());
        assert_eq!(a, b);
    }

    #[test]
    fn chrome_trace_tracks_and_events() {
        let mut t = SpanTracer::new();
        let root = t.start(SimTime::from_millis(1), "master-0", "failover", None);
        t.set_attr(root, "victim", "u0/h1");
        let child = t.start(
            SimTime::from_millis(2),
            "fabric",
            "fabric.execute",
            Some(root),
        );
        t.end(SimTime::from_millis(5), child);
        t.end(SimTime::from_millis(9), root);
        let open = t.start(SimTime::from_millis(10), "master-0", "op", None);
        let _ = open;

        let doc = chrome_trace(&t);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 2 components -> 2 metadata events, plus 3 spans.
        assert_eq!(events.len(), 5);
        let meta: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        let failover = complete
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("failover"))
            .unwrap();
        assert_eq!(failover.get("ts").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(failover.get("dur").and_then(Json::as_f64), Some(8000.0));
        assert_eq!(
            failover
                .get("args")
                .and_then(|a| a.get("victim"))
                .and_then(Json::as_str),
            Some("u0/h1")
        );
        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
            .collect();
        assert_eq!(begins.len(), 1, "open span exported as B event");
    }

    #[test]
    fn wallclock_trace_adds_second_process_with_thread_tracks() {
        use crate::prof::{Phase, Profiler};

        let prof = Profiler::on(1);
        let track = prof.register_track("worker-0".to_string());
        track.slice(Phase::Execute, 0, 100, 50);
        track.slice(Phase::BarrierWait, usize::MAX, 150, 25);
        let snap = prof.snapshot().expect("profiler is on");

        let mut t = SpanTracer::new();
        let a = t.start(SimTime::from_millis(1), "master-0", "op", None);
        t.end(SimTime::from_millis(2), a);

        let doc = chrome_trace_with_wallclock(&t, &snap);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let pid2: Vec<_> = events
            .iter()
            .filter(|e| e.get("pid").and_then(Json::as_f64) == Some(2.0))
            .collect();
        // process_name + thread_name + 2 slices on the wall-clock process.
        assert_eq!(pid2.len(), 4);
        let exec = pid2
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("execute"))
            .expect("execute slice present");
        assert_eq!(exec.get("ts").and_then(Json::as_f64), Some(0.1));
        assert_eq!(exec.get("dur").and_then(Json::as_f64), Some(0.05));
        assert!(
            exec.get("args").and_then(|a| a.get("world")).is_some(),
            "world-attributed slice carries its world id"
        );
        let wait = pid2
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("barrier_wait"))
            .expect("wait slice present");
        assert!(
            wait.get("args").is_none(),
            "thread-level slice has no world arg"
        );
        // The sim-time export is still intact under pid 1.
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("op")));
    }

    #[test]
    fn prometheus_prof_uses_distinct_prefix_and_well_formed_lines() {
        use crate::prof::{Phase, Profiler, TrafficMatrix};

        let prof = Profiler::on(2);
        prof.set_lookahead(std::time::Duration::from_micros(100));
        prof.phase(0, Phase::Execute, 5_000_000);
        prof.phase(1, Phase::BarrierWait, 2_000_000);
        prof.epoch_events(0, 10);
        prof.epoch_events(1, 0);
        prof.epoch(std::time::Duration::from_micros(80), false);
        let snap = prof.snapshot().unwrap();

        let m = TrafficMatrix::new(2);
        m.record(0, 1, 500);
        m.record(1, 0, 900);
        let traffic = m.snapshot();

        let text = prometheus_prof(&snap, Some(&traffic));
        assert!(text.contains("ustore_prof_phase_seconds{world=\"0\",phase=\"execute\"} 0.005"));
        assert!(text.contains("ustore_prof_idle_epochs{world=\"1\"} 1"));
        assert!(text.contains("ustore_prof_lookahead_utilization 0.8"));
        assert!(text.contains("ustore_prof_cross_messages{src=\"0\",dst=\"1\"} 1"));
        assert!(text.contains("ustore_prof_cross_slack_min_ns{src=\"1\",dst=\"0\"} 900"));
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# TYPE ustore_prof_"),
                    "bad comment: {line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("name value");
            assert!(series.starts_with("ustore_prof_"), "bad name: {line}");
            assert!(value.parse::<f64>().is_ok(), "bad value: {line}");
        }
    }

    #[test]
    fn request_trace_adds_exemplar_tracks() {
        use crate::reqtrace::{ReqKind, RequestTracer, Stage};

        let tr = RequestTracer::on(1, 4);
        let id = tr.begin(ReqKind::Read, SimTime::from_millis(1)).unwrap();
        let stamp = tr.dispatch(id, SimTime::from_millis(2));
        tr.mark(stamp, Stage::NetTransit, SimTime::from_millis(3));
        tr.complete(id, SimTime::from_millis(4));
        tr.annotate("watchdog escalate d0", SimTime::from_millis(5));
        let snap = tr.snapshot().unwrap();

        let spans = SpanTracer::new();
        let doc = chrome_trace_with_requests(&spans, &snap);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let pid3: Vec<_> = events
            .iter()
            .filter(|e| e.get("pid").and_then(Json::as_f64) == Some(3.0))
            .collect();
        let root = pid3
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("request"))
            .expect("root request slice");
        assert_eq!(root.get("ts").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(root.get("dur").and_then(Json::as_f64), Some(3000.0));
        assert!(
            root.get("args")
                .and_then(|a| a.get("dominant"))
                .and_then(Json::as_str)
                .is_some(),
            "root slice names the dominant stage"
        );
        assert!(
            pid3.iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("net_transit")),
            "stage segment nested under the request"
        );
        assert!(
            pid3.iter().any(|e| {
                e.get("ph").and_then(Json::as_str) == Some("i")
                    && e.get("name").and_then(Json::as_str) == Some("watchdog escalate d0")
            }),
            "annotation exported as instant event"
        );
    }

    #[test]
    fn chrome_trace_is_byte_stable() {
        let mut t = SpanTracer::new();
        let a = t.start(SimTime::from_millis(0), "zeta", "op", None);
        t.end(SimTime::from_millis(1), a);
        let b = t.start(SimTime::from_millis(2), "alpha", "op", None);
        t.end(SimTime::from_millis(3), b);
        let one = chrome_trace(&t).to_string();
        let two = chrome_trace(&t.clone()).to_string();
        assert_eq!(one, two);
        // alpha gets tid 1 (sorted), despite starting later.
        assert!(one.find("alpha").unwrap() < one.find("zeta").unwrap());
    }
}
