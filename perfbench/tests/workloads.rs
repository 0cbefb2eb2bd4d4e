//! Every workload at a tiny shape (a few units, minutes of simulated time
//! at most): it emits every metric, its read-backs pass, the same seed
//! repeats exactly, and another seed generates other inputs.

use ustore_perfbench::{
    inputs_fingerprint, layer_metrics, run, sim_metrics, Observed, RunOpts, Scale, Workload,
    END_TO_END, PER_LAYER,
};

fn tiny(workload: Workload, seed: u64, traced: bool) -> Observed {
    run(
        workload,
        RunOpts {
            seed,
            scale: Scale::Tiny,
            traced,
        },
    )
}

fn check(workload: Workload) {
    let a = tiny(workload, 7, false);
    let b = tiny(workload, 7, false);
    let traced = tiny(workload, 7, true);

    // Every simulated-time end-to-end metric has samples, a unit, and is
    // one of the benchmark's end-to-end metrics.
    let metrics = sim_metrics(&a);
    for m in &metrics {
        assert!(m.value.is_some(), "{workload}: {} has no samples", m.name);
        let unit = END_TO_END.iter().find(|e| e.0 == m.name).map(|e| e.1);
        assert_eq!(unit, Some(m.unit), "{workload}: {} unit", m.name);
    }
    // The host-time ones are the rest.
    assert_eq!(metrics.len() + 3, END_TO_END.len());

    // Every per-layer metric except the command's own host spans.
    let layers = layer_metrics(&traced);
    for (name, _) in PER_LAYER {
        if !name.starts_with("bench.") {
            assert!(layers.contains_key(name), "{workload}: {name} missing");
        }
    }

    // Read-back.
    assert_eq!(a.ops.mismatches, 0, "{workload}: read-back mismatch");
    assert!(a.ops.verified > 0, "{workload}: nothing read back");

    // Same seed, same simulated-time results, traced or not.
    assert_eq!(sim_metrics(&b), metrics, "{workload}: same seed differs");
    assert_eq!(a.digest, b.digest, "{workload}: digest differs");
    assert_eq!(
        sim_metrics(&traced),
        metrics,
        "{workload}: tracing changed results"
    );
    assert_eq!(
        traced.digest, a.digest,
        "{workload}: tracing changed the digest"
    );

    // Another seed, other inputs.
    assert_ne!(
        inputs_fingerprint(workload, 7, Scale::Tiny),
        inputs_fingerprint(workload, 8, Scale::Tiny),
        "{workload}: the seed does not reach the inputs"
    );
}

#[test]
fn archive_mix() {
    check(Workload::ArchiveMix);
}

#[test]
fn cold_thaw() {
    check(Workload::ColdThaw);
}

#[test]
fn control_churn() {
    check(Workload::ControlChurn);
}
