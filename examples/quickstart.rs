//! Quickstart: run one kernel both ways — natively on your machine and on
//! a simulated RISC-V board — and compare the optimization ladder.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use membound::core::experiment::{simulate, CellKind};
use membound::core::{transpose_native, SquareMatrix, TransposeConfig, TransposeVariant};
use membound::parallel::Pool;
use membound::sim::{Device, Machine};

fn main() {
    let n = 1024;
    let cfg = TransposeConfig::new(n);
    let pool = Pool::host();

    println!("== membound quickstart ==");
    println!(
        "kernel: in-place transposition of a {n} x {n} f64 matrix ({} MiB)\n",
        cfg.matrix_bytes() >> 20
    );

    // 1. Natively, on this machine.
    println!("native, on this host ({} threads):", pool.threads());
    let mut naive_native = 0.0;
    for variant in TransposeVariant::all() {
        let mut m = SquareMatrix::indexed(n);
        let t = transpose_native(&mut m, variant, cfg, &pool).as_secs_f64();
        if variant == TransposeVariant::Naive {
            naive_native = t;
        }
        println!(
            "  {:16} {:>9.2} ms   speedup x{:.1}",
            variant.label(),
            t * 1e3,
            naive_native / t
        );
    }

    // 2. Simulated, on the Mango Pi MQ-Pro model (XuanTie C906).
    let device = Device::MangoPiMqPro;
    println!("\nsimulated, on the {device} model:");
    let machine = Machine::new(device.spec());
    let mut naive_sim = 0.0;
    for variant in TransposeVariant::all() {
        let report = simulate(&machine, &CellKind::Transpose { variant, cfg })
            .into_report()
            .expect("a 1024x1024 matrix fits in 1 GB");
        if variant == TransposeVariant::Naive {
            naive_sim = report.seconds;
        }
        println!(
            "  {:16} {:>9.2} ms   speedup x{:.1}   bottleneck: {}",
            variant.label(),
            report.seconds * 1e3,
            naive_sim / report.seconds,
            report.phases[0].bottleneck
        );
    }

    println!(
        "\nThe ladder's *shape* transfers: the same memory optimizations that\n\
         help your host help the simulated RISC-V board — the paper's central\n\
         observation."
    );
}
