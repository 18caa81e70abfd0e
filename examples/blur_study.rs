//! The §4.3 Gaussian-blur case study: verify the five variants agree on a
//! real image, then run the ladder on every simulated device with the
//! paper's metrics.
//!
//! ```sh
//! cargo run --release --example blur_study
//! ```

use membound::core::{
    blur_native,
    experiment::{simulate, stream_dram_gbps, CellKind},
    metrics, BlurConfig, BlurVariant,
};
use membound::image::generate;
use membound::parallel::Pool;
use membound::sim::{Device, Machine};

fn main() {
    // Correctness first, natively: every variant must produce the same
    // filtered image (borders excluded; see blur::native docs).
    let check_cfg = BlurConfig::small(128, 160);
    let src = generate::test_pattern(check_cfg.height, check_cfg.width, check_cfg.channels);
    let pool = Pool::host();
    let (reference, _) = blur_native(&src, BlurVariant::Naive, &check_cfg, &pool);
    println!("== native correctness check (128 x 160, F = 19) ==");
    for variant in BlurVariant::all() {
        let (out, time) = blur_native(&src, variant, &check_cfg, &pool);
        let diff = reference.max_abs_diff_interior(&out, check_cfg.filter_size);
        println!(
            "  {:12} {:>8.2} ms   max interior deviation {:.2e}",
            variant.label(),
            time.as_secs_f64() * 1e3,
            diff
        );
        assert!(diff < 1e-4, "variants must agree");
    }

    // Then the cross-device study at a reduced size.
    let cfg = BlurConfig::small(507, 636);
    println!(
        "\n== simulated study ({} x {} x {}, F = {}) ==\n",
        cfg.height, cfg.width, cfg.channels, cfg.filter_size
    );
    for &device in Device::all() {
        let machine = Machine::new(device.spec());
        let stream = stream_dram_gbps(&machine);
        println!("{device}:");
        let mut naive_seconds = 0.0;
        for variant in BlurVariant::all() {
            let report = simulate(&machine, &CellKind::Blur { variant, cfg })
                .into_report()
                .expect("blur always fits");
            if variant == BlurVariant::Naive {
                naive_seconds = report.seconds;
            }
            println!(
                "  {:12} {:>10.1} ms  speedup {:>6}  BW-utilization {:.3}",
                variant.label(),
                report.seconds * 1e3,
                format!("x{:.1}", metrics::speedup(naive_seconds, report.seconds)),
                metrics::bandwidth_utilization(cfg.nominal_bytes(), report.seconds, stream),
            );
        }
        println!();
    }

    println!(
        "§4.3's conclusions to look for: separable kernels alone (1D_kernels)\n\
         disappoint relative to their 19x work reduction; restructuring the\n\
         vertical pass (Memory) unlocks the real speedup, dramatically on the\n\
         vectorizing Xeon; parallel gains are bounded by memory channels."
    );
}
