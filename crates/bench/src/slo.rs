//! The request-lifecycle SLO and control-plane sections of `repro perf`.
//!
//! `repro perf` runs the pod-scale deployment sharded and on the classic
//! single-threaded engine with the request tracer on, plus the same pod
//! with partitioned metadata and client location leases, and checks each
//! traced sharded run's digest against an untraced run of the same pod.
//! This module turns the trace snapshots into a time-to-first-byte
//! decomposition:
//!
//! - **where each quantile goes**: per-stage p50 / p99 / p99.9 tables for
//!   reads and writes (client queue, master lookup, network transit,
//!   endpoint queue, spin-up wait, seek, transfer, retry), with the
//!   coverage fraction (stage sums ÷ end-to-end) proving the attribution
//!   tiles the latency;
//! - **what the tail looks like**: the slowest request's full stage
//!   timeline (the exemplars are Perfetto tracks in `repro perf
//!   --trace-out`);
//! - **what the control plane costs**: partition log lengths, the lease
//!   hit rate, and `master_lookup` before and after leasing;
//! - **what tracing costs**: digest gates proving the tracer never
//!   perturbed the simulation (traced and untraced telemetry digests must
//!   be bit-identical).
//!
//! The coverage acceptance bar is ≥ 0.95 at every reported quantile: a
//! pod whose stage accounting explains less than 95% of its TTFB has an
//! unattributed latency source, which is exactly the situation the tracer
//! exists to prevent.

use ustore_sim::{Histogram, Json, Stage, TraceRecord, TraceSnapshot};

use crate::podscale::{digest_gate, PodConfig, PodscaleRun};

/// The quantiles every SLO table reports, with display labels.
pub const SLO_QUANTILES: [(&str, f64); 3] = [("p50", 0.5), ("p99", 0.99), ("p99.9", 0.999)];

/// Minimum stage-coverage fraction accepted at each reported quantile.
pub const COVERAGE_BAR: f64 = 0.95;

/// Minimum stage coverage over kinds and reported quantiles. `None` when
/// no request completed.
pub fn min_coverage(snap: &TraceSnapshot) -> Option<f64> {
    SLO_QUANTILES
        .iter()
        .filter_map(|&(_, q)| snap.min_coverage(q))
        .min_by(|a, b| a.partial_cmp(b).expect("coverage is finite"))
}

/// The `metadata` section of `BENCH_podscale.json`: the partitioned +
/// leased control-plane comparison — partition count, per-partition
/// replicated-log lengths, lease traffic, the client-observed
/// `master_lookup` distribution before (monolithic Master, no lease) and
/// after (partitioned + leased), and the digest gate against the untraced
/// partitioned + leased run's digest.
pub fn metadata_section(
    baseline: &TraceSnapshot,
    leased: &PodscaleRun,
    leased_pod: &PodConfig,
    untraced_digest: u64,
) -> Json {
    let mut out = Json::obj([
        (
            "partitions",
            Json::u64(u64::from(leased_pod.partitions.max(1))),
        ),
        (
            "lease_ms",
            leased_pod
                .location_lease
                .map_or(Json::Null, |d| Json::u64(d.as_millis() as u64)),
        ),
        ("digest", Json::str(format!("{:016x}", leased.digest))),
        (
            "partition_log_lens",
            Json::arr(leased.partition_logs.iter().map(|&(p, len)| {
                Json::obj([
                    ("partition", Json::u64(u64::from(p))),
                    ("log_len", Json::u64(len)),
                ])
            })),
        ),
    ]);
    let snap = leased.slo.as_ref().expect("leased run is traced");
    out.insert("lease_hits", Json::u64(snap.lease_hits));
    out.insert("lease_misses", Json::u64(snap.lease_misses));
    if let Some(r) = snap.lease_hit_rate() {
        out.insert("lease_hit_rate", Json::f64(r));
    }
    let q = |h: &Histogram, q: f64| Json::u64(h.quantile(q).unwrap_or(0));
    out.insert(
        "master_lookup",
        Json::obj([
            ("after_p50_ns", q(&snap.master_lookup, 0.5)),
            ("after_p99_ns", q(&snap.master_lookup, 0.99)),
            ("before_p50_ns", q(&baseline.master_lookup, 0.5)),
            ("before_p99_ns", q(&baseline.master_lookup, 0.99)),
        ]),
    );
    out.insert(
        "untraced_digest",
        Json::str(format!("{untraced_digest:016x}")),
    );
    out.insert(
        "digest_matches_untraced",
        Json::Bool(leased.digest == untraced_digest),
    );
    out
}

/// The `slo` section of `BENCH_podscale.json`: the traced sharded +
/// classic snapshots, the digest gate against the untraced sharded run's
/// digest, and the sharded snapshot's [`min_coverage`] (absent when no
/// request completed).
pub fn slo_section(sharded: &PodscaleRun, classic: &PodscaleRun, untraced_digest: u64) -> Json {
    let snap = |run: &PodscaleRun| run.slo.as_ref().map_or(Json::Null, TraceSnapshot::to_json);
    let mut out = Json::obj([
        ("sharded", snap(sharded)),
        ("classic", snap(classic)),
        (
            "digest_matches_untraced",
            Json::Bool(sharded.digest == untraced_digest),
        ),
    ]);
    if let Some(c) = sharded.slo.as_ref().and_then(min_coverage) {
        out.insert("min_coverage", Json::f64(c));
    }
    out
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2} ms", ns as f64 / 1e6)
}

/// One decomposition-table row: `label` and the p50 / p99 / p99.9 columns
/// of `h`.
fn quantile_row(label: &str, h: &Histogram) -> String {
    let [p50, p99, p999] = SLO_QUANTILES.map(|(_, q)| fmt_ms(h.quantile(q).unwrap_or(0)));
    format!("  {label:<14} {p50:>12} {p99:>12} {p999:>12}")
}

/// Human-readable TTFB decomposition of the traced sharded run, with the
/// digest gate against the untraced run's digest.
pub fn decomposition(sharded: &PodscaleRun, untraced_digest: u64) -> String {
    let mut out = String::new();
    let p = |out: &mut String, s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    let snap = sharded.slo.as_ref().expect("traced run has a snapshot");
    p(
        &mut out,
        format!(
            "requests: {} completed, {} retries, {} cold hits, {} abandoned, {} live at end",
            snap.seen, snap.retries, snap.cold_hits, snap.abandoned, snap.live_at_end
        ),
    );
    p(
            &mut out,
            format!(
                "sampling: {} full traces kept (1 per {} completions, {} dropped past cap), {} exemplars",
                snap.sampled.len(),
                snap.sample_every,
                snap.sample_dropped,
                snap.exemplars.len()
            ),
        );
    p(
        &mut out,
        format!(
            "master lookups: {} served, {} unresolved; client-observed p99 {}",
            snap.lookups_served,
            snap.lookups_unresolved,
            fmt_ms(snap.master_lookup.quantile(0.99).unwrap_or(0))
        ),
    );

    for stats in &snap.kinds {
        if stats.completed == 0 {
            continue;
        }
        p(&mut out, String::new());
        p(
            &mut out,
            format!(
                "ttfb decomposition — {} ({} completed, {} cold):",
                stats.kind.name(),
                stats.completed,
                stats.cold_completed
            ),
        );
        p(
            &mut out,
            format!(
                "  {:<14} {:>12} {:>12} {:>12} {:>7} {:>9}",
                "stage", "p50", "p99", "p99.9", "share", "dominant"
            ),
        );
        for s in Stage::ALL {
            p(
                &mut out,
                format!(
                    "{} {:>6.1}% {:>9}",
                    quantile_row(s.name(), &stats.stages[s as usize]),
                    stats.stage_share(s) * 100.0,
                    stats.dominant[s as usize]
                ),
            );
        }
        p(&mut out, quantile_row("attributed", &stats.attributed));
        p(&mut out, quantile_row("end-to-end", &stats.e2e));
        let cov: Vec<String> = SLO_QUANTILES
            .iter()
            .map(|&(label, q)| {
                stats.coverage(q).map_or_else(
                    || format!("{label} n/a"),
                    |c| format!("{label} {:.1}%", c * 100.0),
                )
            })
            .collect();
        p(&mut out, format!("  coverage: {}", cov.join(", ")));
    }

    if let Some(w) = snap.worst() {
        p(&mut out, String::new());
        p(&mut out, worst_exemplar_timeline(w));
    }
    if !snap.annotations.is_empty() {
        p(
            &mut out,
            format!(
                "cluster annotations: {} (first: {:.3} s {})",
                snap.annotations.len(),
                snap.annotations[0].0 as f64 / 1e9,
                snap.annotations[0].1
            ),
        );
    }

    p(&mut out, String::new());
    if let Some(c) = min_coverage(snap) {
        p(
            &mut out,
            format!(
                "coverage floor: {:.1}% across kinds and quantiles (bar: {:.0}%)",
                c * 100.0,
                COVERAGE_BAR * 100.0
            ),
        );
    }
    p(
        &mut out,
        digest_gate("traced", sharded.digest, "untraced", untraced_digest),
    );
    out
}

/// Human-readable control-plane comparison: the partitioned + leased run
/// against the monolithic `baseline` snapshot, with the digest gate against
/// the untraced partitioned + leased run's digest.
pub fn metadata_diagnosis(
    baseline: &TraceSnapshot,
    leased: &PodscaleRun,
    leased_pod: &PodConfig,
    untraced_digest: u64,
) -> String {
    let mut out = String::new();
    let p = |out: &mut String, s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    p(
        &mut out,
        format!(
            "control plane off the critical path: {} metadata partitions, {} lease",
            leased_pod.partitions,
            leased_pod
                .location_lease
                .map_or_else(|| "no".to_string(), |d| format!("{} ms", d.as_millis())),
        ),
    );
    let snap = leased.slo.as_ref().expect("leased run is traced");
    p(
        &mut out,
        format!(
            "  lease consultations: {} hits / {} misses{}",
            snap.lease_hits,
            snap.lease_misses,
            snap.lease_hit_rate()
                .map_or_else(String::new, |r| format!(" (hit rate {:.1}%)", r * 100.0)),
        ),
    );
    // The median is where the lease shows up: hits are served locally
    // (recorded as zero), so at hit rates above 50% the median
    // consultation becomes free. The tail is the residual misses,
    // measured under full workload.
    let q = |h: &Histogram, q: f64| h.quantile(q).map_or_else(|| "n/a".to_string(), fmt_ms);
    p(
        &mut out,
        format!(
            "  master_lookup p50: {} unpartitioned -> {} partitioned+leased",
            q(&baseline.master_lookup, 0.5),
            q(&snap.master_lookup, 0.5),
        ),
    );
    p(
        &mut out,
        format!(
            "  master_lookup p99: {} unpartitioned -> {} partitioned+leased (residual misses)",
            q(&baseline.master_lookup, 0.99),
            q(&snap.master_lookup, 0.99),
        ),
    );
    p(
        &mut out,
        format!(
            "  partition logs: {}",
            leased
                .partition_logs
                .iter()
                .map(|(p, len)| format!("p{p}={len}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
    );
    let gate = digest_gate("leased traced", leased.digest, "untraced", untraced_digest);
    p(&mut out, format!("  {gate}"));
    out
}

/// Renders the slowest request's stage timeline, one attributed interval
/// per line, offsets relative to issue time.
fn worst_exemplar_timeline(w: &TraceRecord) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "worst request: id {} ({}{}, {} attempt{}) — ttfb {}, dominant {}\n",
        w.id,
        w.kind.name(),
        if w.cold { ", cold" } else { "" },
        w.attempts,
        if w.attempts == 1 { "" } else { "s" },
        fmt_ms(w.ttfb_ns),
        w.dominant().name()
    ));
    for seg in &w.segments {
        out.push_str(&format!(
            "  +{:>10} {:<14} {}\n",
            fmt_ms(seg.start_ns.saturating_sub(w.start_ns)),
            seg.stage.name(),
            fmt_ms(seg.dur_ns)
        ));
    }
    let unattributed = w.ttfb_ns.saturating_sub(w.attributed_ns);
    if unattributed > 0 {
        out.push_str(&format!("  (unattributed: {})\n", fmt_ms(unattributed)));
    }
    out.pop();
    out
}
