//! The measurement entry point (`repro perf`): wall-clock engine
//! performance, the profiled and traced pod, and the gates on both.
//!
//! Every experiment in this reproduction funnels through `ustore-sim`'s
//! event loop, so the engine's wall-clock throughput bounds how big a
//! deployment the harness can explore. This module measures it with two
//! scenarios:
//!
//! - **degraded** — the watchdog scenario: a 16-disk unit with the full
//!   telemetry pipeline on. Telemetry-heavy, the historical hot spot.
//! - **podscale** — [`crate::podscale`]: 64 units / 256 hosts / 1024
//!   disks under one Master, mixed archival workload. The scale target.
//! - **sharding** — the same pod on the sharded parallel engine
//!   ([`crate::podscale::RunOpts::sharded`]) at 1, 2, 4, … threads
//!   (digests must be identical at every count), plus the 4096-disk
//!   [`crate::megapod`] at the largest count.
//!
//! For each it reports **events/sec** (engine events processed per
//! wall-clock second), **peak live queue depth**, and — when the caller
//! provides an allocation counter (the `repro` binary installs a counting
//! global allocator) — **allocations per event**. The podscale scenario
//! runs twice with the same seed and the two telemetry digests must be
//! identical: the determinism guard for the engine's interning and heap
//! rewrites.
//!
//! At the sweep's largest shard count the pod also runs instrumented
//! ([`Instrumented`]): with the wall-clock profiler on, with the request
//! tracer on, and partitioned + leased with the tracer on. Those runs feed
//! the `profile`, `slo` and `metadata` sections ([`crate::profile`],
//! [`crate::slo`]), the text diagnoses, the Prometheus and Perfetto
//! exports, and the purity gates: probes must never change a digest.
//!
//! Every number is measured on the machine that runs the harness; the
//! report carries no ratios against numbers recorded elsewhere.

use std::time::Instant;

use ustore_sim::{export, Json, SpanTracer};

use ustore::TracePlan;

use crate::degraded;
use crate::fuzz;
use crate::megapod;
use crate::podscale::{run_podscale, PodConfig, PodscaleRun, RunOpts};
use crate::profile;
use crate::report::{Report, Row};
use crate::slo;

/// Perf-run options.
#[derive(Debug, Clone, Copy)]
pub struct PerfOptions {
    /// Simulation seed (shared by every measured scenario).
    pub seed: u64,
    /// Quick mode: fewer repetitions and the shorter podscale workload
    /// window (same 1024-disk pod). This is what CI runs.
    pub quick: bool,
    /// Maximum executor threads for the shard-scaling sweep (the sweep
    /// measures powers of two up to this, always including 1 and this
    /// value; the megapod runs at this value).
    pub shards: usize,
    /// Returns the process-lifetime allocation count; measured around each
    /// run to derive allocations/event. `None` leaves the metric out.
    pub alloc_counter: Option<fn() -> u64>,
}

/// One scenario's wall-clock measurement (best of the repetitions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSample {
    /// Virtual seconds simulated in one run.
    pub sim_seconds: f64,
    /// Engine events processed in one run.
    pub events: u64,
    /// Wall-clock seconds for the best run.
    pub wall_seconds: f64,
    /// `events / wall_seconds` for the best run.
    pub events_per_sec: f64,
    /// Peak live (non-cancelled) event-queue depth.
    pub peak_queue_depth: f64,
    /// Heap allocations per processed event, if a counter was provided.
    pub allocs_per_event: Option<f64>,
}

/// One point of the shard-scaling sweep.
#[derive(Debug, Clone)]
pub struct ShardSample {
    /// Executor threads.
    pub shards: usize,
    /// Wall-clock measurement of the run.
    pub sample: PerfSample,
    /// Telemetry digest of the run (must match every other point).
    pub digest: u64,
    /// Epoch windows executed.
    pub epochs: u64,
    /// Inner synchronization rounds executed.
    pub sync_rounds: u64,
    /// Envelopes routed across world boundaries.
    pub cross_messages: u64,
    /// Sum of per-world peak queue depths (whole-sim pressure; the
    /// `sample`'s `peak_queue_depth` is the per-shard max).
    pub peak_queue_depth_sum: f64,
}

/// The shard-scaling section of the perf report.
#[derive(Debug, Clone)]
pub struct ShardScaling {
    /// Unit-group worlds the pod was decomposed into.
    pub groups: u32,
    /// One measurement per shard count, ascending; `counts[0]` is the
    /// serial (1-thread) run.
    pub counts: Vec<ShardSample>,
    /// Whether every point produced the same telemetry digest — the
    /// determinism gate for the parallel engine.
    pub digests_identical: bool,
    /// `events_per_sec` at the largest shard count over the serial run.
    pub speedup_vs_serial: f64,
    /// Classic single-threaded engine wall time over the *best* (fastest)
    /// sharded point's wall time: how the parallel engine fares against
    /// the engine it is supposed to beat, not just against its own serial
    /// mode (shards-1 being 4x off classic used to hide behind
    /// `speedup_vs_serial`).
    pub speedup_vs_classic: f64,
    /// Serial (shards = 1) sharded wall time over the classic
    /// single-threaded engine's wall time on the same pod: what the epoch
    /// machinery itself costs before parallelism pays it back.
    pub shard_overhead_vs_classic: f64,
    /// The megapod (4096 disks) measured at the largest shard count.
    pub megapod: ShardSample,
    /// The megapod shape measured.
    pub megapod_pod: PodConfig,
}

/// The full perf report.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Options the run used.
    pub quick: bool,
    /// Seed the run used.
    pub seed: u64,
    /// The degraded-scenario measurement.
    pub degraded: PerfSample,
    /// The podscale measurement.
    pub podscale: PerfSample,
    /// Pod shape measured.
    pub pod: PodConfig,
    /// Telemetry digest of the podscale run (hex).
    pub podscale_digest: u64,
    /// Whether two same-seed podscale runs produced identical digests.
    pub deterministic: bool,
    /// The sharded-engine scaling sweep (pod at 1..=N shards + megapod).
    pub sharding: ShardScaling,
    /// The wall-clock profiler section: profiled sharded + classic runs,
    /// phase coverage, and the profiling-on digest gate
    /// ([`crate::profile::profile_section`]).
    pub profile: Json,
    /// The request-lifecycle SLO section: traced sharded + classic runs'
    /// TTFB decomposition snapshots, the stage coverage floor and the
    /// tracing-on digest gate ([`crate::slo::slo_section`]).
    pub slo: Json,
    /// The control-plane section: the partitioned + leased pod's partition
    /// count, per-partition replicated-log lengths, lease hit rate, the
    /// client-observed `master_lookup` distribution before/after, and its
    /// tracing-on digest gate ([`crate::slo::metadata_section`]).
    pub metadata: Json,
    /// The fault-model section: a reference fuzz campaign set's
    /// durability nines, repair bandwidth, scrub coverage, watchdog FP/FN
    /// rates, and the replay determinism gate
    /// ([`crate::fuzz::faults_section`]).
    pub faults: Json,
}

fn measure<R>(
    iters: u32,
    alloc_counter: Option<fn() -> u64>,
    mut run: impl FnMut() -> R,
    stats: impl Fn(&R) -> (f64, u64, f64),
) -> (PerfSample, R) {
    let mut best: Option<(PerfSample, R)> = None;
    for _ in 0..iters.max(1) {
        let allocs_before = alloc_counter.map(|f| f());
        let t0 = Instant::now();
        let out = run();
        let wall = t0.elapsed();
        let allocs = alloc_counter.map(|f| f() - allocs_before.unwrap_or(0));
        let (sim_seconds, events, peak_queue_depth) = stats(&out);
        let wall_seconds = wall.as_secs_f64().max(1e-9);
        let sample = PerfSample {
            sim_seconds,
            events,
            wall_seconds,
            events_per_sec: events as f64 / wall_seconds,
            peak_queue_depth,
            allocs_per_event: allocs.map(|a| a as f64 / events.max(1) as f64),
        };
        let better = best
            .as_ref()
            .is_none_or(|(b, _)| sample.events_per_sec > b.events_per_sec);
        if better {
            best = Some((sample, out));
        }
    }
    best.expect("at least one iteration")
}

/// Runs the perf harness: degraded (repeated, best run kept), podscale
/// (twice, same seed, digests compared), the shard sweep, the instrumented
/// runs and the reference fuzz campaigns. Returns the report with the
/// instrumented runs behind its `profile`, `slo` and `metadata` sections.
pub fn run_perf(opts: &PerfOptions) -> (PerfReport, Instrumented) {
    // The degraded run costs tens of milliseconds, so best-of-N with a
    // healthy N is nearly free and is what rejects scheduler noise on a
    // shared machine; the expensive pod run stays at its own cadence
    // below.
    let iters = if opts.quick { 3 } else { 8 };
    let (degraded_sample, _) = measure(
        iters,
        opts.alloc_counter,
        || degraded::run_degraded(opts.seed),
        |run| {
            (
                run.timing.total.as_secs_f64(),
                run.events_processed,
                run.peak_queue_depth,
            )
        },
    );
    let pod = if opts.quick {
        PodConfig::quick()
    } else {
        PodConfig::pod()
    };
    // Run the pod twice with the same seed: the second run both feeds the
    // best-of measurement and proves telemetry determinism.
    let classic_sample = || {
        measure(
            1,
            opts.alloc_counter,
            || run_podscale(opts.seed, &pod, RunOpts::default()),
            |run| (run.sim_seconds, run.events, run.peak_queue_depth),
        )
    };
    let (podscale_sample, first) = classic_sample();
    let (podscale_sample2, second) = classic_sample();
    let deterministic = first.digest == second.digest && first.events == second.events;
    let podscale_best = if podscale_sample2.events_per_sec > podscale_sample.events_per_sec {
        podscale_sample2
    } else {
        podscale_sample
    };
    // Shard-scaling sweep: the same pod on the sharded engine at 1, 2, 4,
    // ... threads (every digest must match), then the megapod at the
    // largest count. The sweep reuses the pod shape, so "events" differ
    // from the single-world runs above (different decomposition) but are
    // identical across the sweep.
    let max_shards = opts.shards.max(1);
    let mut shard_counts: Vec<usize> = vec![1];
    let mut c = 2;
    while c <= max_shards {
        shard_counts.push(c);
        c *= 2;
    }
    if max_shards > 1 && !shard_counts.contains(&max_shards) {
        shard_counts.push(max_shards);
    }
    // Best-of-3 per sweep point: sharded wall times are compared against
    // the classic engine's (also best-of), and a single noisy sample on a
    // shared or virtualized runner would otherwise dominate the
    // `shard_overhead_vs_classic` gate.
    let shard_iters = if opts.quick { 2 } else { 3 };
    let shard_sample = |pod: &PodConfig, shards: usize| {
        let (sample, run) = measure(
            shard_iters,
            opts.alloc_counter,
            || run_podscale(opts.seed, pod, RunOpts::sharded(shards)),
            |run| (run.sim_seconds, run.events, run.peak_queue_depth),
        );
        let stats = run.sharding.expect("sharded run carries shard stats");
        ShardSample {
            shards,
            sample,
            digest: run.digest,
            epochs: stats.epochs,
            sync_rounds: stats.sync_rounds,
            cross_messages: stats.cross_messages,
            peak_queue_depth_sum: stats.peak_queue_depth_sum,
        }
    };
    let counts: Vec<ShardSample> = shard_counts
        .iter()
        .map(|&s| shard_sample(&pod, s))
        .collect();
    let digests_identical = counts.windows(2).all(|w| w[0].digest == w[1].digest);
    let speedup_vs_serial = counts
        .last()
        .expect("sweep has points")
        .sample
        .events_per_sec
        / counts[0].sample.events_per_sec;
    let megapod_pod = if opts.quick {
        megapod::megapod_quick()
    } else {
        megapod::megapod()
    };
    let megapod = shard_sample(&megapod_pod, max_shards);
    let shard_overhead_vs_classic = counts[0].sample.wall_seconds / podscale_best.wall_seconds;
    let best_sharded_wall = counts
        .iter()
        .map(|c| c.sample.wall_seconds)
        .fold(f64::INFINITY, f64::min);
    let speedup_vs_classic = podscale_best.wall_seconds / best_sharded_wall;
    let sharding = ShardScaling {
        groups: pod.world_groups,
        digests_identical,
        speedup_vs_serial,
        speedup_vs_classic,
        shard_overhead_vs_classic,
        megapod,
        megapod_pod,
        counts,
    };

    // The instrumented runs, checked against the unprofiled, untraced
    // sweep point at the same shard count.
    let unprobed_digest = sharding.counts.last().expect("sweep has points").digest;
    let instrumented = Instrumented::run(opts.seed, &pod, max_shards, unprobed_digest);

    // The fault-model section: a small reference fuzz campaign set under
    // the empirical fault model, including its replay determinism gate.
    let fuzz_run = fuzz::run_fuzz(&fuzz::FuzzOptions {
        seed: opts.seed,
        quick: opts.quick,
        shards: max_shards,
        campaigns: if opts.quick { 2 } else { 4 },
        synthetic_fail: false,
        replay: None,
    });
    let faults = fuzz::faults_section(&fuzz_run);

    let report = PerfReport {
        quick: opts.quick,
        seed: opts.seed,
        degraded: degraded_sample,
        podscale: podscale_best,
        pod,
        podscale_digest: first.digest,
        deterministic,
        sharding,
        profile: instrumented.profile_section(),
        slo: instrumented.slo_section(),
        metadata: instrumented.metadata_section(),
        faults,
    };
    (report, instrumented)
}

/// The pod runs made with probes on, at one shard count, with the digests
/// of the same pods run without probes. Profiling and tracing are pure
/// side channels, so every probed digest must equal its unprobed one.
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// Telemetry digest of the sharded pod run with no probes on.
    pub unprobed_digest: u64,
    /// The profiled sharded run (`prof` and `traffic` populated).
    pub profiled: PodscaleRun,
    /// The profiled classic (single-threaded) run (`prof` populated).
    pub profiled_classic: PodscaleRun,
    /// The traced sharded run (`slo` populated).
    pub traced: PodscaleRun,
    /// The traced classic (single-threaded) run (`slo` populated).
    pub traced_classic: PodscaleRun,
    /// The partitioned + leased pod shape (the same pod with one metadata
    /// partition per unit-group world and client location leases).
    pub leased_pod: PodConfig,
    /// The traced partitioned + leased sharded run (`slo` populated) —
    /// the before/after comparison for the `master_lookup` stage.
    pub leased: PodscaleRun,
    /// Telemetry digest of the untraced partitioned + leased run.
    pub leased_untraced_digest: u64,
}

impl Instrumented {
    /// Runs `pod` sharded over `shards` threads profiled and traced, on the
    /// classic engine profiled and traced, and partitioned + leased traced
    /// and untraced. `unprobed_digest` is the digest of `pod` run sharded
    /// over `shards` threads with no probes on.
    pub fn run(seed: u64, pod: &PodConfig, shards: usize, unprobed_digest: u64) -> Instrumented {
        let traced = RunOpts::sharded(shards).traced(TracePlan::default());
        let leased_pod = pod.clone().partitioned();
        Instrumented {
            unprobed_digest,
            profiled: run_podscale(seed, pod, RunOpts::sharded(shards).profiled()),
            profiled_classic: run_podscale(seed, pod, RunOpts::default().profiled()),
            traced: run_podscale(seed, pod, traced.clone()),
            traced_classic: run_podscale(
                seed,
                pod,
                RunOpts::default().traced(TracePlan::default()),
            ),
            leased: run_podscale(seed, &leased_pod, traced),
            leased_untraced_digest: run_podscale(seed, &leased_pod, RunOpts::sharded(shards))
                .digest,
            leased_pod,
        }
    }

    /// The `profile` section ([`profile::profile_section`]).
    pub fn profile_section(&self) -> Json {
        profile::profile_section(&self.profiled, &self.profiled_classic, self.unprobed_digest)
    }

    /// The `slo` section ([`slo::slo_section`]).
    pub fn slo_section(&self) -> Json {
        slo::slo_section(&self.traced, &self.traced_classic, self.unprobed_digest)
    }

    /// The `metadata` section ([`slo::metadata_section`]).
    pub fn metadata_section(&self) -> Json {
        slo::metadata_section(
            self.traced.slo.as_ref().expect("traced run has a snapshot"),
            &self.leased,
            &self.leased_pod,
            self.leased_untraced_digest,
        )
    }

    /// The human-readable diagnosis: the scaling profile, the TTFB
    /// decomposition and the control-plane comparison.
    pub fn diagnosis(&self) -> String {
        format!(
            "{}\n\nwall-clock profile:\n{}\nrequest lifecycle:\n{}\n{}",
            self.profiled.report.title,
            profile::diagnosis(&self.profiled, &self.profiled_classic, self.unprobed_digest),
            slo::decomposition(&self.traced, self.unprobed_digest),
            slo::metadata_diagnosis(
                self.traced.slo.as_ref().expect("traced run has a snapshot"),
                &self.leased,
                &self.leased_pod,
                self.leased_untraced_digest,
            ),
        )
    }

    /// One Perfetto trace of the sharded pod: the engine threads'
    /// wall-clock timelines (`pid` 2) and the slowest requests' stage
    /// timelines (`pid` 3). The sim-time process is empty — podscale runs
    /// with warning-level tracing, so there are no spans to pair it with.
    pub fn perfetto(&self) -> Json {
        export::chrome_trace(
            &SpanTracer::new(),
            self.profiled.prof.as_ref(),
            self.traced.slo.as_ref(),
        )
    }

    /// The profiler aggregates in Prometheus exposition format
    /// (`ustore_prof_` prefix).
    pub fn prometheus(&self) -> String {
        self.profiled.prof.as_ref().map_or_else(String::new, |p| {
            export::prometheus_prof(p, self.profiled.traffic.as_ref())
        })
    }
}

fn sample_json(s: &PerfSample) -> Json {
    Json::obj([
        ("sim_seconds", Json::f64(s.sim_seconds)),
        ("events", Json::u64(s.events)),
        ("wall_seconds", Json::f64(s.wall_seconds)),
        ("events_per_sec", Json::f64(s.events_per_sec)),
        ("peak_queue_depth", Json::f64(s.peak_queue_depth)),
        (
            "allocs_per_event",
            s.allocs_per_event.map_or(Json::Null, Json::f64),
        ),
    ])
}

fn shard_sample_json(s: &ShardSample) -> Json {
    Json::obj([
        ("shards", Json::u64(s.shards as u64)),
        ("sim_seconds", Json::f64(s.sample.sim_seconds)),
        ("events", Json::u64(s.sample.events)),
        ("wall_seconds", Json::f64(s.sample.wall_seconds)),
        ("events_per_sec", Json::f64(s.sample.events_per_sec)),
        ("epochs", Json::u64(s.epochs)),
        ("sync_rounds", Json::u64(s.sync_rounds)),
        ("cross_messages", Json::u64(s.cross_messages)),
        ("peak_queue_depth_max", Json::f64(s.sample.peak_queue_depth)),
        ("peak_queue_depth_sum", Json::f64(s.peak_queue_depth_sum)),
        ("digest", Json::str(format!("{:016x}", s.digest))),
    ])
}

impl PerfReport {
    /// The `BENCH_podscale.json` document.
    pub fn to_bench_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("ustore-bench-podscale-v9")),
            ("mode", Json::str(if self.quick { "quick" } else { "full" })),
            ("seed", Json::u64(self.seed)),
            (
                "pod",
                Json::obj([
                    ("units", Json::u64(u64::from(self.pod.units))),
                    ("hosts", Json::u64(u64::from(self.pod.hosts()))),
                    ("disks", Json::u64(u64::from(self.pod.disks()))),
                    ("clients", Json::u64(u64::from(self.pod.clients))),
                ]),
            ),
            (
                "current",
                Json::obj([
                    ("degraded", sample_json(&self.degraded)),
                    ("podscale", sample_json(&self.podscale)),
                ]),
            ),
            (
                "determinism",
                Json::obj([
                    (
                        "podscale_digest",
                        Json::str(format!("{:016x}", self.podscale_digest)),
                    ),
                    ("two_runs_identical", Json::Bool(self.deterministic)),
                ]),
            ),
            (
                "sharding",
                Json::obj([
                    ("groups", Json::u64(u64::from(self.sharding.groups))),
                    (
                        "counts",
                        Json::arr(self.sharding.counts.iter().map(shard_sample_json)),
                    ),
                    (
                        "digests_identical",
                        Json::Bool(self.sharding.digests_identical),
                    ),
                    (
                        "speedup_vs_serial",
                        Json::f64(self.sharding.speedup_vs_serial),
                    ),
                    (
                        "speedup_vs_classic",
                        Json::f64(self.sharding.speedup_vs_classic),
                    ),
                    (
                        "shard_overhead_vs_classic",
                        Json::f64(self.sharding.shard_overhead_vs_classic),
                    ),
                    (
                        "megapod",
                        Json::obj([
                            (
                                "units",
                                Json::u64(u64::from(self.sharding.megapod_pod.units)),
                            ),
                            (
                                "hosts",
                                Json::u64(u64::from(self.sharding.megapod_pod.hosts())),
                            ),
                            (
                                "disks",
                                Json::u64(u64::from(self.sharding.megapod_pod.disks())),
                            ),
                            (
                                "groups",
                                Json::u64(u64::from(self.sharding.megapod_pod.world_groups)),
                            ),
                            ("run", shard_sample_json(&self.sharding.megapod)),
                        ]),
                    ),
                ]),
            ),
            ("profile", self.profile.clone()),
            ("slo", self.slo.clone()),
            ("metadata", self.metadata.clone()),
            ("faults", self.faults.clone()),
        ])
    }

    /// Human-readable report rows.
    pub fn to_report(&self) -> Report {
        let mut rows = vec![
            Row::measured_only("degraded events/sec", self.degraded.events_per_sec, ""),
            Row::measured_only(
                "degraded peak queue depth",
                self.degraded.peak_queue_depth,
                "",
            ),
            Row::measured_only("podscale events/sec", self.podscale.events_per_sec, ""),
            Row::measured_only(
                "podscale peak queue depth",
                self.podscale.peak_queue_depth,
                "",
            ),
            Row::measured_only("podscale disks", f64::from(self.pod.disks()), ""),
            Row::measured_only(
                "podscale deterministic",
                if self.deterministic { 1.0 } else { 0.0 },
                "",
            ),
        ];
        if let Some(a) = self.degraded.allocs_per_event {
            rows.push(Row::measured_only("degraded allocs/event", a, ""));
        }
        if let Some(a) = self.podscale.allocs_per_event {
            rows.push(Row::measured_only("podscale allocs/event", a, ""));
        }
        for s in &self.sharding.counts {
            rows.push(Row::measured_only(
                format!("sharded pod events/sec ({} threads)", s.shards),
                s.sample.events_per_sec,
                "",
            ));
        }
        rows.push(Row::measured_only(
            "shard digests identical",
            if self.sharding.digests_identical {
                1.0
            } else {
                0.0
            },
            "",
        ));
        rows.push(Row::measured_only(
            "shard speedup vs serial",
            self.sharding.speedup_vs_serial,
            "x",
        ));
        rows.push(Row::measured_only(
            "shard speedup vs classic (best point)",
            self.sharding.speedup_vs_classic,
            "x",
        ));
        rows.push(Row::measured_only(
            "shard overhead vs classic (1 thread)",
            self.sharding.shard_overhead_vs_classic,
            "x",
        ));
        rows.push(Row::measured_only(
            format!(
                "megapod ({} disks) events/sec ({} threads)",
                self.sharding.megapod_pod.disks(),
                self.sharding.megapod.shards
            ),
            self.sharding.megapod.sample.events_per_sec,
            "",
        ));
        if let Some(r) = self.metadata.get("lease_hit_rate").and_then(Json::as_f64) {
            rows.push(Row::measured_only("lease cache hit rate", r, ""));
        }
        if let Some(p) = self
            .metadata
            .get("partitions")
            .and_then(Json::as_f64)
            .filter(|&p| p > 1.0)
        {
            rows.push(Row::measured_only("metadata partitions", p, ""));
        }
        if let Some(nines) = self
            .faults
            .get("durability")
            .and_then(|d| d.get("nines"))
            .and_then(Json::as_f64)
        {
            rows.push(Row::measured_only("fuzz durability nines", nines, ""));
        }
        if let Some(Json::Bool(ok)) = self
            .faults
            .get("replay")
            .and_then(|r| r.get("digest_matches"))
        {
            rows.push(Row::measured_only(
                "fuzz replay bit-identical",
                if *ok { 1.0 } else { 0.0 },
                "",
            ));
        }
        Report::new("engine perf (wall clock)", rows)
    }

    /// Every gate the run must pass, as one message per failed gate; empty
    /// when the run passes. The probe gates read the same `profile`, `slo`
    /// and `metadata` keys that `BENCH_podscale.json` carries.
    pub fn gate_failures(&self) -> Vec<&'static str> {
        let flag = |section: &Json, key: &str| section.get(key) == Some(&Json::Bool(true));
        let num = |section: &Json, key: &str| section.get(key).and_then(Json::as_f64);
        [
            (self.deterministic, "two same-seed podscale runs diverged"),
            (
                self.sharding.digests_identical,
                "telemetry digests diverged across shard counts",
            ),
            (
                flag(&self.profile, "digest_matches_unprofiled"),
                "telemetry digest changed with the profiler on",
            ),
            (
                flag(&self.slo, "digest_matches_untraced"),
                "telemetry digest changed with the request tracer on",
            ),
            (
                flag(&self.metadata, "digest_matches_untraced"),
                "telemetry digest changed with the tracer on in the partitioned+leased run",
            ),
            (
                num(&self.slo, "min_coverage").is_some_and(|c| c >= slo::COVERAGE_BAR),
                "stage coverage fell below the 95% bar: TTFB has an unattributed latency source",
            ),
            (
                num(&self.metadata, "lease_hit_rate").is_some_and(|r| r > 0.0),
                "the leased run never hit the location-lease cache",
            ),
        ]
        .into_iter()
        .filter_map(|(ok, msg)| (!ok).then_some(msg))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(digest_matches: bool) -> Json {
        Json::obj([("digest_matches_unprofiled", Json::Bool(digest_matches))])
    }

    fn slo(digest_matches: bool, min_coverage: f64) -> Json {
        Json::obj([
            ("digest_matches_untraced", Json::Bool(digest_matches)),
            ("min_coverage", Json::f64(min_coverage)),
        ])
    }

    fn metadata(lease_hit_rate: f64, digest_matches: bool) -> Json {
        Json::obj([
            ("partitions", Json::u64(8)),
            ("lease_hit_rate", Json::f64(lease_hit_rate)),
            ("untraced_digest", Json::str("00000000cafef00d")),
            ("digest_matches_untraced", Json::Bool(digest_matches)),
        ])
    }

    #[test]
    fn bench_json_schema_is_stable() {
        let sample = PerfSample {
            sim_seconds: 1.0,
            events: 100,
            wall_seconds: 0.5,
            events_per_sec: 200.0,
            peak_queue_depth: 7.0,
            allocs_per_event: Some(3.5),
        };
        let shard = |shards: usize| ShardSample {
            shards,
            sample,
            digest: 0xfeed_f00d,
            epochs: 42,
            sync_rounds: 84,
            cross_messages: 17,
            peak_queue_depth_sum: 11.0,
        };
        let rep = PerfReport {
            quick: true,
            seed: 1,
            degraded: sample,
            podscale: sample,
            pod: PodConfig::quick(),
            podscale_digest: 0xdead_beef,
            deterministic: true,
            sharding: ShardScaling {
                groups: 8,
                counts: vec![shard(1), shard(2), shard(4)],
                digests_identical: true,
                speedup_vs_serial: 2.5,
                speedup_vs_classic: 2.1,
                shard_overhead_vs_classic: 1.2,
                megapod: shard(4),
                megapod_pod: crate::megapod::megapod_quick(),
            },
            profile: profile(true),
            slo: slo(true, 0.97),
            metadata: metadata(0.75, true),
            faults: Json::obj([("replay", Json::obj([("digest_matches", Json::Bool(true))]))]),
        };
        let j = rep.to_bench_json().to_string();
        assert!(j.contains(r#""schema":"ustore-bench-podscale-v9""#));
        assert!(!j.contains(r#""baseline""#), "no cross-machine baseline");
        assert!(!j.contains(r#""speedup":"#), "no ratios against it");
        assert!(j.contains(r#""events_per_sec":200"#));
        assert!(j.contains(r#""two_runs_identical":true"#));
        assert!(j.contains(r#""podscale_digest":"00000000deadbeef""#));
        assert!(j.contains(r#""disks":1024"#));
        assert!(j.contains(r#""digests_identical":true"#));
        assert!(j.contains(r#""speedup_vs_serial":2.5"#));
        assert!(j.contains(r#""speedup_vs_classic":2.1"#));
        assert!(j.contains(r#""sync_rounds":84"#));
        assert!(j.contains(r#""shard_overhead_vs_classic":1.2"#));
        assert!(j.contains(r#""cross_messages":17"#));
        assert!(j.contains(r#""disks":4096"#), "megapod shape recorded");
        assert!(
            j.contains(r#""profile":{"digest_matches_unprofiled":true}"#),
            "profile section carried through"
        );
        assert!(
            j.contains(r#""slo":{"digest_matches_untraced":true,"min_coverage":0.97}"#),
            "slo section carried through"
        );
        assert!(
            j.contains(concat!(
                r#""metadata":{"partitions":8,"lease_hit_rate":0.75,"#,
                r#""untraced_digest":"00000000cafef00d","digest_matches_untraced":true}"#
            )),
            "metadata section carried through"
        );
        assert!(
            j.contains(r#""faults":{"replay":{"digest_matches":true}}"#),
            "faults section carried through"
        );

        // Every gate passes on the fixture, and breaking any one key the
        // gates read fails exactly that gate.
        assert!(rep.gate_failures().is_empty());
        type Break = fn(&mut PerfReport);
        let breaks: [Break; 7] = [
            |r| r.deterministic = false,
            |r| r.sharding.digests_identical = false,
            |r| r.profile = profile(false),
            |r| r.slo = slo(false, 0.97),
            |r| r.metadata = metadata(0.75, false),
            |r| r.slo = slo(true, 0.94),
            |r| r.metadata = metadata(0.0, true),
        ];
        for (i, b) in breaks.iter().enumerate() {
            let mut broken = rep.clone();
            b(&mut broken);
            assert_eq!(broken.gate_failures().len(), 1, "gate {i} fired alone");
        }
    }

    #[test]
    fn quick_instrumented_runs_cover_wall_and_ttfb_and_keep_digests() {
        let pod = PodConfig::quick();
        let unprobed = run_podscale(41, &pod, RunOpts::sharded(2)).digest;
        let run = Instrumented::run(41, &pod, 2, unprobed);

        // Profiling and tracing must not perturb the simulation.
        assert_eq!(run.profiled.digest, unprobed, "profiler leaked");
        assert_eq!(run.traced.digest, unprobed, "tracer leaked");
        assert_eq!(
            run.leased.digest, run.leased_untraced_digest,
            "tracing must not perturb the partitioned + leased simulation"
        );

        // The profiler tiles the wall clock and sees cross-world traffic.
        let prof = run
            .profiled
            .prof
            .as_ref()
            .expect("profiled run has snapshot");
        assert!(prof.epochs > 0);
        for w in &prof.worlds {
            assert!(
                w.phase_ns[ustore_sim::Phase::Execute as usize] > 0,
                "world {} executed",
                w.world
            );
        }
        // The coverage bar is checked loosely here (CI machines are noisy
        // and the quick run is short); `repro perf` reports the exact
        // number and the full run meets >= 0.95.
        let coverage = profile::coverage_fraction(&run.profiled);
        assert!(
            coverage > 0.5,
            "phase sums cover most of the wall: {coverage}"
        );
        let traffic = run.profiled.traffic.as_ref().expect("traffic matrix on");
        assert!(traffic.total_messages() > 0);

        // The tracer explains the TTFB of the monolithic pod.
        let snap = run.traced.slo.as_ref().expect("traced run has snapshot");
        assert!(snap.seen > 0, "workload completed under trace");
        assert!(snap.worst().is_some(), "exemplars retained");
        let min_coverage = slo::min_coverage(snap);
        assert!(
            min_coverage.expect("coverage computed") >= slo::COVERAGE_BAR,
            "stage sums must explain >= 95% of TTFB: {min_coverage:?}"
        );
        let classic = run.traced_classic.slo.as_ref().expect("classic traced too");
        assert!(classic.seen > 0);

        // Partitioned metadata and leases take the control plane off the
        // critical path.
        assert_eq!(
            run.leased_pod.partitions, pod.world_groups,
            "one metadata partition per unit-group world"
        );
        assert_eq!(run.leased.io_errors, 0, "leased pod serves all IO");
        assert!(
            run.leased.partition_logs.len() == run.leased_pod.partitions as usize
                && run.leased.partition_logs.iter().all(|&(_, l)| l > 0),
            "every metadata partition applied log entries: {:?}",
            run.leased.partition_logs
        );
        let leased = run.leased.slo.as_ref().expect("leased run traced");
        assert!(
            leased.lease_hit_rate().expect("leases consulted") > 0.0,
            "steady-state directory refreshes must hit the lease cache"
        );
        // Lease hits are served locally and recorded as zero, so with a
        // healthy hit rate the *median* directory consultation becomes
        // free; the tail (p99) is still a real Master round trip and is
        // measured under full workload, so it is not comparable with the
        // unleased baseline's bring-up-time lookups.
        let base_p50 = snap
            .master_lookup
            .quantile(0.5)
            .expect("baseline lookups measured");
        let leased_p50 = leased.master_lookup.quantile(0.5).unwrap_or(0);
        assert!(
            leased_p50 < base_p50,
            "leased master_lookup p50 ({leased_p50} ns) must beat the unleased baseline ({base_p50} ns)"
        );

        // The text diagnosis covers all three runs.
        let text = run.diagnosis();
        for needle in [
            "top phase costs",
            "busiest pair",
            "epoch efficiency:",
            "sync rounds",
            "ttfb decomposition — read",
            "spin_up_wait",
            "worst request",
            "metadata partitions",
            "lease consultations",
        ] {
            assert!(text.contains(needle), "diagnosis lacks {needle:?}");
        }
        for gate in [
            "determinism: profiled digest",
            "determinism: traced digest",
            "determinism: leased traced digest",
        ] {
            let line = text.lines().find(|l| l.contains(gate)).expect(gate);
            assert!(line.contains(" == "), "{line}");
        }

        // The sections carry the gates BENCH_podscale.json is checked on.
        let profile = run.profile_section().to_string();
        assert!(profile.contains(r#""digest_matches_unprofiled":true"#));
        assert!(
            profile.contains(r#""dropped_slices""#),
            "snapshot reports timeline truncation (0 when none)"
        );
        let slo = run.slo_section().to_string();
        assert!(slo.contains(r#""digest_matches_untraced":true"#));
        assert!(slo.contains(r#""min_coverage":"#));
        let metadata = run.metadata_section().to_string();
        assert!(metadata.contains(r#""lease_hit_rate":"#));
        assert!(metadata.contains(r#""partition_log_lens":"#));
        assert!(metadata.contains(r#""digest_matches_untraced":true"#));

        // One Perfetto file holds both timelines; the Prometheus export
        // holds the profiler aggregates.
        let trace = run.perfetto().to_string();
        for process in ["sim-time", "wall-clock", "requests"] {
            assert!(trace.contains(process), "trace lacks process {process}");
        }
        assert!(trace.contains("reqtrace"));
        assert!(run.prometheus().contains("ustore_prof_phase_seconds"));
    }
}
