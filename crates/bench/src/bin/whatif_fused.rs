//! WHAT-IF: pass fusion beyond the paper's ladder.
//!
//! The paper's best blur ("Parallel") still pays a full scratch-image
//! round-trip. Production filters (the OpenCV gap the paper's footnote
//! mentions) fuse the two separable passes through a ring buffer of F
//! filtered rows. This bench compares the paper's Parallel variant with
//! the fused extension on every device — including the honest negative
//! result: at full image width the F-row ring (~290 KiB) fits the Xeon's
//! and the Pi's caches but not the RISC-V boards', so fusion helps
//! exactly where the cache hierarchy can hold the window.
//!
//! Both variants and the STREAM baselines execute through the parallel
//! experiment engine, and memoize into the persistent result cache when
//! `--cache-dir` (or `MEMBOUND_CACHE_DIR`) is set.

use membound_bench::{scale_banner, Args};
use membound_core::report::{fmt_seconds, to_json, TextTable};
use membound_core::runner::{Cell, ExperimentMatrix};
use membound_core::BlurVariant;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    device: String,
    parallel_seconds: f64,
    fused_seconds: f64,
    fused_gain: f64,
    parallel_dram_mb: u64,
    fused_dram_mb: u64,
    parallel_util: f64,
    fused_util: f64,
}

fn main() {
    let args = Args::parse("whatif_fused");
    let cfg = membound_core::figures::blur_config(args.full);
    let devices = args.devices();
    let engine = args.engine();
    println!("WHAT-IF: fused separable blur vs the paper's Parallel variant");
    println!("{}", scale_banner(args.full));
    println!("engine: {} jobs\n", engine.jobs());

    let baselines = engine.stream_baselines(
        &devices
            .iter()
            .map(|d| (d.label().to_string(), d.spec()))
            .collect::<Vec<_>>(),
    );
    let panel = format!("{}x{}", cfg.height, cfg.width);
    let mut matrix = ExperimentMatrix::new("whatif_fused");
    for (label, gbps) in &baselines {
        matrix.stream_baseline(label, *gbps);
    }
    for device in &devices {
        let spec = device.spec();
        matrix.push(Cell::blur(
            panel.clone(),
            device.label(),
            &spec,
            BlurVariant::Parallel,
            cfg,
        ));
        matrix.push(Cell::fused_blur(
            panel.clone(),
            device.label(),
            &spec,
            cfg,
            spec.cores,
        ));
    }
    let results = args.run_matrix(&engine, &matrix);

    let mut table = TextTable::new(
        [
            "device",
            "Parallel",
            "Fused",
            "gain",
            "DRAM MB (Par)",
            "DRAM MB (Fused)",
            "util (Par)",
            "util (Fused)",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut rows = Vec::new();
    for pair in results.cells.chunks(2) {
        // sim_summary() covers fresh and --resume restored cells alike.
        let parallel = pair[0].sim_summary().expect("parallel blur always runs");
        let fused = pair[1].sim_summary().expect("fused blur always runs");
        let gain = parallel.seconds / fused.seconds;
        let p_util = pair[0].bandwidth_utilization.unwrap_or(0.0);
        let f_util = pair[1].bandwidth_utilization.unwrap_or(0.0);
        let device = pair[0].cell.device.clone();
        table.row(vec![
            device.clone(),
            fmt_seconds(parallel.seconds),
            fmt_seconds(fused.seconds),
            format!("x{gain:.2}"),
            (parallel.dram_bytes_total >> 20).to_string(),
            (fused.dram_bytes_total >> 20).to_string(),
            format!("{p_util:.3}"),
            format!("{f_util:.3}"),
        ]);
        rows.push(Row {
            device,
            parallel_seconds: parallel.seconds,
            fused_seconds: fused.seconds,
            fused_gain: gain,
            parallel_dram_mb: parallel.dram_bytes_total >> 20,
            fused_dram_mb: fused.dram_bytes_total >> 20,
            parallel_util: p_util,
            fused_util: f_util,
        });
    }
    println!("{}", table.render());
    println!(
        "reading: fusion removes the tmp-image round-trip wherever the F-row\n\
         ring fits in cache (watch the DRAM column), and does little on the\n\
         boards whose hierarchies cannot hold the window — cache capacity,\n\
         again, is the watershed."
    );
    args.write_json(&to_json(&rows));
    args.write_run_log(&results);
}
