//! FIG3: relative memory-bandwidth utilization (§3.3 metric) of the naïve
//! and the best optimized transposition, per device and matrix size.
//!
//! STREAM baselines and the transpose matrix both execute through the
//! parallel experiment engine; the run log carries every cell's
//! utilization. With `--cache-dir` (or `MEMBOUND_CACHE_DIR`) both cell
//! kinds memoize into the persistent result cache, so a warm re-run
//! reproduces the figure without simulating.

use membound_bench::{scale_banner, Args};
use membound_core::figures;
use membound_core::report::{to_json, TextTable};
use membound_core::{TransposeConfig, TransposeVariant};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    panel_n: usize,
    device: String,
    stream_gbps: f64,
    naive_utilization: f64,
    best_variant: String,
    best_utilization: f64,
}

fn main() {
    let args = Args::parse("fig3_transpose_util");
    let [n1, n2] = figures::transpose_sizes(args.full);
    let devices = args.devices();
    let engine = args.engine();
    println!("FIG3: relative memory-bandwidth utilization, transposition");
    println!("{}", scale_banner(args.full));
    println!("engine: {} jobs\n", engine.jobs());

    // The §3.3 denominator: each device's STREAM DRAM bandwidth,
    // measured in parallel.
    let baselines = engine.stream_baselines(
        &devices
            .iter()
            .map(|d| (d.label().to_string(), d.spec()))
            .collect::<Vec<_>>(),
    );

    let mut matrix = figures::transpose_ladder(
        "fig3_transpose_util",
        &[n1, n2].map(TransposeConfig::new),
        &devices,
        &TransposeVariant::all(),
    );
    for (label, gbps) in &baselines {
        matrix.stream_baseline(label, *gbps);
    }
    let results = args.run_matrix(&engine, &matrix);

    let mut rows = Vec::new();
    for n in [n1, n2] {
        println!("panel: {n} x {n}");
        let mut table = TextTable::new(
            [
                "device",
                "STREAM GB/s",
                "naive util",
                "best variant",
                "best util",
            ]
            .map(String::from)
            .to_vec(),
        );
        for device in &devices {
            let ladder: Vec<_> = results
                .cells
                .iter()
                .filter(|r| r.cell.panel == n.to_string() && r.cell.device == device.label())
                .collect();
            let stream = baselines
                .iter()
                .find(|(l, _)| l == device.label())
                .map(|(_, g)| *g)
                .unwrap_or(0.0);
            let naive = ladder
                .iter()
                .find(|r| r.cell.variant == "Naive")
                .and_then(|r| r.bandwidth_utilization);
            let Some(naive) = naive else {
                table.row(vec![
                    device.label().into(),
                    "-".into(),
                    "does not fit in memory".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            };
            let (best_variant, best) = ladder
                .iter()
                .skip(1)
                .filter_map(|r| r.bandwidth_utilization.map(|u| (r.cell.variant.clone(), u)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one optimized variant");
            table.row(vec![
                device.label().into(),
                format!("{stream:.2}"),
                format!("{naive:.3}"),
                best_variant.clone(),
                format!("{best:.3}"),
            ]);
            rows.push(Row {
                panel_n: n,
                device: device.label().into(),
                stream_gbps: stream,
                naive_utilization: naive,
                best_variant,
                best_utilization: best,
            });
        }
        println!("{}", table.render());
    }
    println!(
        "shape check (paper Fig. 3): optimization raises utilization on every\n\
         device; the StarFive reaches the highest relative utilization (its\n\
         DRAM is so slow that the optimized kernel saturates it); the Mango\n\
         Pi stays low (single cache level, modest L1)."
    );
    args.write_json(&to_json(&rows));
    args.write_run_log(&results);
}
