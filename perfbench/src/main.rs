//! The benchmark command.
//!
//! ```text
//! ustore-perfbench --workload <archive_mix|cold_thaw|control_churn>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload from the same seed again and again until `--seconds`
//! have passed (at least three times untraced and, with `--trace 1`, at
//! least once traced), checks the results, and prints a report whose last
//! line is one JSON object: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. Host-time metrics are medians over the runs
//! after the first, which warms the process up; simulated-time metrics
//! must be identical in every run. Any failed check exits with code 1 and
//! prints no JSON.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ustore_perfbench::stats::median;
use ustore_perfbench::{
    heap, layer_metrics, run, sim_metrics, Metric, Observed, RunOpts, Scale, Workload, END_TO_END,
    PER_LAYER,
};

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

const USAGE: &str =
    "usage: ustore-perfbench --workload <archive_mix|cold_thaw|control_churn> --seed <n> --seconds <s> --trace <0|1>";

/// Lowest share of request latency the stage attribution must explain.
const MIN_STAGE_COVERAGE: f64 = 0.95;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if !matches!(
            flag.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace"
        ) {
            return Err(format!("unknown flag {flag}"));
        }
        flags.insert(flag, value);
    }
    let get = |f: &str| flags.get(f).ok_or_else(|| format!("missing {f}"));
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be in 1..=3600".into());
    }
    Ok(Args {
        workload: get("--workload")?.parse()?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("# {}", fingerprint());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match measure(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the workload until the time is up, checks every run, and returns
/// the result line.
fn measure(args: &Args) -> Result<String, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let opts = |traced| RunOpts {
        seed: args.seed,
        scale: Scale::Full,
        traced,
    };
    let mut plain: Vec<Observed> = Vec::new();
    let mut traced: Vec<Observed> = Vec::new();
    // Untraced and traced runs alternate, so both see the same machine.
    // The first run warms the process up (heap growth, page faults, cold
    // caches); it is checked but not timed.
    while plain.len() < 3 || (args.trace && traced.is_empty()) || start.elapsed() < budget {
        let want_traced = args.trace && traced.len() < plain.len();
        let o = run(args.workload, opts(want_traced));
        check_run(&o)?;
        if want_traced {
            traced.push(o);
        } else {
            plain.push(o);
        }
    }

    let reference = sim_metrics(&plain[0]);
    for (i, o) in plain.iter().chain(&traced).enumerate().skip(1) {
        let kind = if i < plain.len() {
            "untraced"
        } else {
            "traced"
        };
        if sim_metrics(o) != reference || o.digest != plain[0].digest {
            return Err(format!(
                "run {i} ({kind}) differs from run 0: same seed must give identical \
                 simulated-time metrics and telemetry digest ({:016x} vs {:016x})",
                o.digest, plain[0].digest
            ));
        }
    }
    println!(
        "# {} untraced and {} traced runs, telemetry digest {:016x}",
        plain.len(),
        traced.len(),
        plain[0].digest
    );
    let ops = &plain[0].ops;
    println!(
        "# samples per run: {} writes, {} reads ({} read back and checked), {} meta ops, {} failovers; {} ops attempted, {} failed",
        ops.writes.len(),
        ops.reads.len(),
        ops.verified,
        ops.meta.len(),
        plain[0].failovers.len(),
        ops.attempted,
        ops.failed
    );

    let med = |runs: &[Observed], f: fn(&Observed) -> f64| {
        median(&runs.iter().map(f).collect::<Vec<_>>())
    };
    let timed = &plain[1..];
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let mut layers = layer_metrics(&traced[0]);
        let coverage = layers.get("stage.coverage").copied().unwrap_or(1.0);
        if coverage < MIN_STAGE_COVERAGE {
            return Err(format!(
                "stage coverage {coverage:.4} is below {MIN_STAGE_COVERAGE}: the request \
                 stages do not explain end-to-end latency"
            ));
        }
        let untraced_wall = med(timed, |o| o.host.wall_s());
        let host = [
            ("bench.build_s", med(&traced, |o| o.host.build_s)),
            ("bench.settle_s", med(&traced, |o| o.host.settle_s)),
            ("bench.bringup_s", med(&traced, |o| o.host.bringup_s)),
            ("bench.window_s", med(&traced, |o| o.host.window_s)),
            ("bench.export_s", med(&traced, |o| o.host.export_s)),
            (
                "bench.trace_overhead",
                med(&traced, |o| o.host.wall_s()) / untraced_wall,
            ),
            // Engine cost per event is an untraced figure: tracing is
            // probe cost, reported above.
            (
                "sim.host_us_per_event",
                med(timed, |o| layer_metrics(o)["sim.host_us_per_event"]),
            ),
            (
                "sim.allocs_per_event",
                med(timed, |o| layer_metrics(o)["sim.allocs_per_event"]),
            ),
        ];
        layers.extend(host);
        print_layers(&layers);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = layers
                    .get(name)
                    .copied()
                    .ok_or_else(|| format!("per-layer metric {name} was not produced"))?;
                Ok((name, unit, v))
            })
            .collect::<Result<_, String>>()?
    } else {
        let host = [
            ("setup_s", med(timed, |o| o.host.setup_s())),
            ("wall_s", med(timed, |o| o.host.wall_s())),
            (
                "peak_heap_mb",
                med(timed, |o| o.peak_heap_bytes as f64 / f64::from(1 << 20)),
            ),
        ];
        print_end_to_end(&host, &reference);
        let each = |f: fn(&Observed) -> f64| {
            let v: Vec<String> = timed.iter().map(|o| format!("{:.4}", f(o))).collect();
            v.join(" ")
        };
        println!(
            "# setup_s of each timed run: {}",
            each(|o| o.host.setup_s())
        );
        println!("# wall_s of each timed run: {}", each(|o| o.host.wall_s()));
        let mut values: BTreeMap<&str, f64> = host.into_iter().collect();
        for m in &reference {
            let v = m
                .value
                .ok_or_else(|| format!("{} has no samples on {}", m.name, args.workload))?;
            values.insert(m.name, v);
        }
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, values[name]))
            .collect()
    };
    for &(name, _, v) in &metrics {
        if !v.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    ))
}

/// Per-run correctness: every read-back matched, and something was read
/// back at all.
fn check_run(o: &Observed) -> Result<(), String> {
    if o.ops.mismatches > 0 {
        return Err(format!(
            "{} of {} read-backs returned data other than what was written",
            o.ops.mismatches,
            o.ops.mismatches + o.ops.verified
        ));
    }
    if o.ops.verified == 0 {
        return Err("no read was checked against written data".into());
    }
    Ok(())
}

fn print_end_to_end(host: &[(&str, f64)], sim: &[Metric]) {
    println!("# {:<18} {:>16} {:<6} samples", "metric", "value", "unit");
    for (name, v) in host {
        let unit = END_TO_END.iter().find(|m| m.0 == *name).map_or("", |m| m.1);
        println!("# {name:<18} {v:>16.6} {unit:<6} host time, median of runs");
    }
    for m in sim {
        let value = m.value.map_or("absent".to_string(), |v| format!("{v:.6}"));
        let q = m
            .quantile
            .map_or(String::new(), |q| format!(" (quantile {q:.4})"));
        println!(
            "# {:<18} {:>16} {:<6} {}{}",
            m.name, value, m.unit, m.samples, q
        );
    }
}

fn print_layers(layers: &BTreeMap<&str, f64>) {
    for (name, unit) in PER_LAYER {
        if let Some(v) = layers.get(name) {
            println!("# {name:<32} {v:>18.6} {unit}");
        }
    }
}

/// Machine fingerprint: results hold only on the machine they name.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "machine: nproc={nproc} cpu=\"{}\" rustc=\"{}\" commit={}",
        cpu_model(),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_commit()
    )
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The checked-out commit, when the benchmark runs from a git work tree.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
