//! The §4.2 transposition case study end-to-end: run the five-variant
//! ladder on all four simulated devices, compute the paper's two relative
//! metrics, and print Fig. 2 + Fig. 3 style summaries for one size.
//!
//! ```sh
//! cargo run --release --example transpose_study [n]
//! ```

use membound::core::{
    experiment::{simulate, stream_dram_gbps, CellKind},
    metrics, TransposeConfig, TransposeVariant,
};
use membound::sim::{Device, Machine};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("matrix size must be an integer"))
        .unwrap_or(2048);
    let cfg = TransposeConfig::new(n);
    println!("== transposition study: {n} x {n} doubles ==\n");

    for &device in Device::all() {
        let spec = device.spec();
        if !spec.fits_in_memory(cfg.matrix_bytes()) {
            println!("{device}: matrix does not fit in {} GB of memory (the paper's\n  missing 16384 bars)\n", spec.dram_capacity_bytes >> 30);
            continue;
        }
        let machine = Machine::new(spec);
        let stream = stream_dram_gbps(&machine);
        println!("{device} (STREAM DRAM: {stream:.2} GB/s):");
        let mut naive_seconds = 0.0;
        for variant in TransposeVariant::all() {
            let report = simulate(&machine, &CellKind::Transpose { variant, cfg })
                .into_report()
                .expect("fits");
            if variant == TransposeVariant::Naive {
                naive_seconds = report.seconds;
            }
            let util = metrics::bandwidth_utilization(cfg.nominal_bytes(), report.seconds, stream);
            println!(
                "  {:16} {:>10.1} ms  speedup {:>6}  BW-utilization {:.3}  [{}]",
                variant.label(),
                report.seconds * 1e3,
                format!("x{:.1}", metrics::speedup(naive_seconds, report.seconds)),
                util,
                report.phases[0].bottleneck,
            );
        }
        println!();
    }

    println!(
        "§4.2's conclusions to look for: the optimizations developed for x86\n\
         work on the RISC-V boards; despite much lower STREAM bandwidth the\n\
         boards' best variants reach high relative utilization (Fig. 3)."
    );
}
