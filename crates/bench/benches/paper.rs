//! Plain-harness benches wrapping the paper's experiments.
//!
//! Each bench regenerates one table/figure data point; `cargo bench`
//! therefore doubles as an end-to-end exercise of the whole stack. Wall
//! time here is simulator throughput, not storage performance — the
//! storage numbers are the *outputs*, printed by `repro`.
//!
//! The harness is hand-rolled (no external bench framework): each case
//! runs a couple of warmup iterations, then reports mean/min/max wall
//! time over a small fixed sample.

use std::hint::black_box;
use std::time::Instant;

use ustore_bench::{failover, fig5, fig6, power, table2};
use ustore_cost::{table1, PriceCatalog};
use ustore_disk::DiskProfile;
use ustore_workload::AccessSpec;

fn bench(name: &str, samples: u32, mut f: impl FnMut()) {
    for _ in 0..2 {
        f();
    }
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed());
    }
    let total: std::time::Duration = times.iter().sum();
    let mean = total / samples;
    let min = times.iter().min().copied().unwrap_or_default();
    let max = times.iter().max().copied().unwrap_or_default();
    println!("{name:<28} mean {mean:>12.3?}  min {min:>12.3?}  max {max:>12.3?}  (n={samples})");
}

fn main() {
    bench("table2/sata_4k_seq_read", 5, || {
        black_box(table2::run_disk_cell(
            DiskProfile::sata(),
            &AccessSpec::new(4096, 100, false),
            1,
        ));
    });
    bench("table2/hs_4m_seq_read", 5, || {
        black_box(table2::run_fabric_cell(
            &AccessSpec::new(4 << 20, 100, false),
            1,
        ));
    });
    bench("fig5/duplex_12_disks", 3, || {
        black_box(fig5::duplex(7).rows[0].measured);
    });
    bench("fig6/switch_4_disks", 3, || {
        black_box(fig6::switch_time(4, 9));
    });
    bench("failover/host_failure_recovery", 3, || {
        black_box(failover::run_failover(11, u32::MAX).timing.total);
    });
    bench("models/table1_cost_model", 10, || {
        black_box(table1(&PriceCatalog::default(), 10.0));
    });
    bench("models/table5_power_model", 10, || {
        black_box(power::table5());
    });
}
