//! The wall-clock profiler section of `repro perf`.
//!
//! `repro perf` runs the pod-scale deployment sharded and on the classic
//! single-threaded engine with the profiler on, and checks the sharded
//! run's digest against the unprofiled sweep point at the same shard
//! count. This module turns those snapshots into a scaling diagnosis:
//!
//! - **where the wall time goes**: per-world `execute` / `outbox_drain` /
//!   `barrier_wait` / `merge` / `idle_jump` breakdown, with the coverage
//!   fraction (phase sums ÷ measured wall) proving the accounting tiles
//!   the run;
//! - **how well the epochs work**: events-per-epoch distribution,
//!   idle-epoch counts, and lookahead utilization (mean epoch advance ÷
//!   lookahead);
//! - **what crosses worlds**: the `src × dst` traffic matrix with slack
//!   histograms — slack is how much earlier than the lookahead bound a
//!   message could have been delivered;
//! - **what profiling costs**: sharded wall time vs the classic engine,
//!   and a digest gate proving the profiler never perturbed the
//!   simulation (profiled and unprofiled telemetry digests must be
//!   bit-identical).

use ustore_sim::{Json, Phase};

use crate::podscale::{digest_gate, PodscaleRun};

/// Phase-sum ÷ run-wall coverage, minimized over worlds. Each world's
/// phases tile its host thread's wall clock (sibling busy time is charged
/// as `barrier_wait`), so every world should individually account for
/// ~100% of the run window; the minimum is the honest headline.
pub fn coverage_fraction(run: &PodscaleRun) -> f64 {
    let Some(prof) = &run.prof else { return 0.0 };
    let wall_ns = run.run_wall_seconds * 1e9;
    if wall_ns <= 0.0 {
        return 0.0;
    }
    prof.worlds
        .iter()
        .map(|w| w.total_ns() as f64 / wall_ns)
        .fold(f64::INFINITY, f64::min)
        .min(1.0)
}

/// The `profile` section of `BENCH_podscale.json`: profiled sharded +
/// classic snapshots, coverage, overhead, and the digest gate against the
/// unprofiled sharded run's digest.
pub fn profile_section(
    sharded: &PodscaleRun,
    classic: &PodscaleRun,
    unprofiled_digest: u64,
) -> Json {
    Json::obj([
        (
            "sharded",
            Json::obj([
                ("run_wall_seconds", Json::f64(sharded.run_wall_seconds)),
                ("coverage", Json::f64(coverage_fraction(sharded))),
                (
                    "prof",
                    sharded.prof.as_ref().map_or(Json::Null, |p| p.to_json()),
                ),
                (
                    "traffic",
                    sharded.traffic.as_ref().map_or(Json::Null, |t| t.to_json()),
                ),
            ]),
        ),
        (
            "classic",
            Json::obj([
                ("run_wall_seconds", Json::f64(classic.run_wall_seconds)),
                (
                    "prof",
                    classic.prof.as_ref().map_or(Json::Null, |p| p.to_json()),
                ),
            ]),
        ),
        (
            "overhead_vs_classic",
            Json::f64(if classic.run_wall_seconds > 0.0 {
                sharded.run_wall_seconds / classic.run_wall_seconds
            } else {
                f64::NAN
            }),
        ),
        (
            "digest_matches_unprofiled",
            Json::Bool(sharded.digest == unprofiled_digest),
        ),
    ])
}

fn fmt_secs(ns: u64) -> String {
    format!("{:.3} s", ns as f64 / 1e9)
}

/// Human-readable scaling diagnosis of the profiled sharded run, against
/// the profiled classic run and the unprofiled run's digest.
pub fn diagnosis(sharded: &PodscaleRun, classic: &PodscaleRun, unprofiled_digest: u64) -> String {
    let mut out = String::new();
    let p = |out: &mut String, s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    p(
        &mut out,
        format!(
            "run wall: {:.3} s sharded, {:.3} s classic ({:.2}x vs classic)",
            sharded.run_wall_seconds,
            classic.run_wall_seconds,
            sharded.run_wall_seconds / classic.run_wall_seconds.max(1e-9)
        ),
    );
    p(
        &mut out,
        format!(
            "phase coverage: {:.1}% of measured wall accounted (min across worlds)",
            coverage_fraction(sharded) * 100.0
        ),
    );

    let prof = sharded.prof.as_ref().expect("profiled run has a snapshot");
    let dropped = prof.dropped_slices();
    if dropped > 0 {
        p(
            &mut out,
            format!(
                "warning: wall-clock timeline truncated — {dropped} slices dropped past \
                     the {}-per-track cap (aggregates are complete)",
                ustore_sim::prof::SLICE_CAP
            ),
        );
    }

    // Top phase costs, aggregated across worlds, sorted descending.
    let mut totals: Vec<(Phase, u64)> = Phase::ALL
        .iter()
        .map(|&ph| (ph, prof.phase_total_ns(ph)))
        .collect();
    totals.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let grand: u64 = totals.iter().map(|(_, ns)| ns).sum();
    p(&mut out, String::new());
    p(&mut out, "top phase costs (all worlds):".to_string());
    for (ph, ns) in &totals {
        p(
            &mut out,
            format!(
                "  {:<13} {:>12}  {:5.1}%",
                ph.name(),
                fmt_secs(*ns),
                *ns as f64 / grand.max(1) as f64 * 100.0
            ),
        );
    }

    p(&mut out, String::new());
    p(
        &mut out,
        format!(
            "  {:<5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6} {:>9} {:>7} {:>8}",
            "world",
            "execute",
            "outbox",
            "barrier",
            "merge",
            "idle",
            "wait%",
            "events",
            "epochs",
            "ev/epoch"
        ),
    );
    for w in &prof.worlds {
        let ns = |ph: Phase| w.phase_ns[ph as usize] as f64 / 1e9;
        p(
            &mut out,
            format!(
                "  {:<5} {:>9.3}s {:>9.3}s {:>9.3}s {:>9.3}s {:>9.3}s {:>5.1}% {:>9} {:>7} {:>8.1}",
                w.world,
                ns(Phase::Execute),
                ns(Phase::OutboxDrain),
                ns(Phase::BarrierWait),
                ns(Phase::Merge),
                ns(Phase::IdleJump),
                w.barrier_fraction() * 100.0,
                w.events,
                w.epochs,
                w.events_per_epoch.mean().unwrap_or(0.0)
            ),
        );
    }

    p(&mut out, String::new());
    let epe = prof.events_per_epoch();
    p(
            &mut out,
            format!(
                "epochs: {} windows ({} sync rounds), {} idle-jump; min lookahead {} ns, utilization {}",
                prof.epochs,
                prof.sync_rounds,
                prof.idle_jump_epochs,
                prof.lookahead_ns,
                prof.lookahead_utilization()
                    .map_or_else(|| "n/a".to_string(), |u| format!("{:.1}%", u * 100.0))
            ),
        );
    let horizon_ns = sharded.sim_seconds * 1e9;
    let mean_advance_ns = prof.advance_ns_total as f64 / prof.epochs.max(1) as f64;
    let barrier_ns = prof.phase_total_ns(Phase::BarrierWait);
    let accounted: u64 = Phase::ALL.iter().map(|&ph| prof.phase_total_ns(ph)).sum();
    p(
        &mut out,
        format!(
            "epoch efficiency: {} windows, mean advance {:.4}% of horizon, \
                 barrier-wait {:.1}% of accounted wall",
            prof.epochs,
            if horizon_ns > 0.0 {
                mean_advance_ns / horizon_ns * 100.0
            } else {
                0.0
            },
            barrier_ns as f64 / accounted.max(1) as f64 * 100.0
        ),
    );
    p(
        &mut out,
        format!(
            "events/epoch (per world): mean {:.1}, p50 {}, p99 {}, max {}",
            epe.mean().unwrap_or(0.0),
            epe.quantile(0.5).unwrap_or(0),
            epe.quantile(0.99).unwrap_or(0),
            epe.max().unwrap_or(0)
        ),
    );

    if let Some(t) = &sharded.traffic {
        p(&mut out, String::new());
        p(
            &mut out,
            format!(
                "cross-world traffic: {} messages over {} world pairs",
                t.total_messages(),
                t.cells.len()
            ),
        );
        if let Some(b) = t.busiest() {
            p(
                &mut out,
                format!(
                    "  busiest pair: world {} -> {} ({} messages, min slack {} ns, mean {:.0} ns)",
                    b.src,
                    b.dst,
                    b.messages,
                    b.min_slack_ns,
                    b.mean_slack_ns()
                ),
            );
        }
    }

    p(&mut out, String::new());
    p(
        &mut out,
        digest_gate("profiled", sharded.digest, "unprofiled", unprofiled_digest),
    );
    out
}
