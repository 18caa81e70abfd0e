//! FIG2: computation time of the five transposition variants on the four
//! devices, for both matrix sizes (Fig. 2's two panels). Bar labels show
//! the naïve time in seconds and each optimized variant's speedup, as in
//! the paper.
//!
//! The full panel × device × variant matrix is executed through the
//! parallel experiment engine (`--jobs`), and the per-cell telemetry is
//! written as a JSONL run log next to the JSON rows.

use membound_bench::{scale_banner, Args};
use membound_core::cache::CachedOutcome;
use membound_core::figures;
use membound_core::report::{fmt_seconds, fmt_speedup, to_json, BarChart, TextTable};
use membound_core::runner::CellOutcome;
use membound_core::{TransposeConfig, TransposeVariant};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    panel_n: usize,
    device: String,
    variant: String,
    threads: u32,
    seconds: f64,
    speedup_vs_naive: f64,
    fits_in_memory: bool,
}

fn main() {
    let args = Args::parse("fig2_transpose");
    let [n1, n2] = figures::transpose_sizes(args.full);
    let devices = args.devices();
    let engine = args.engine();
    println!("FIG2: in-place matrix transposition, five variants x four devices");
    println!("{}", scale_banner(args.full));
    println!("engine: {} jobs\n", engine.jobs());

    let matrix = figures::transpose_ladder(
        "fig2_transpose",
        &[n1, n2].map(TransposeConfig::new),
        &devices,
        &TransposeVariant::all(),
    );
    let results = args.run_matrix(&engine, &matrix);

    let mut rows = Vec::new();
    let mut cells = results.cells.iter().peekable();
    for n in [n1, n2] {
        let cfg = TransposeConfig::new(n);
        println!(
            "panel: {n} x {n} doubles ({} MiB matrix)",
            cfg.matrix_bytes() >> 20
        );
        let mut table = TextTable::new(
            ["device", "variant", "threads", "time", "speedup"]
                .map(String::from)
                .to_vec(),
        );
        let mut chart = BarChart::new("simulated time, normalized per device");
        while let Some(r) = cells.peek() {
            if r.cell.panel != n.to_string() {
                break;
            }
            let r = cells.next().expect("peeked");
            // sim_summary() serves freshly simulated and --resume
            // restored cells alike.
            if let Some(sim) = r.sim_summary() {
                let speedup = r.speedup_vs_naive.unwrap_or(0.0);
                table.row(vec![
                    r.cell.device.clone(),
                    r.cell.variant.clone(),
                    sim.threads.to_string(),
                    fmt_seconds(sim.seconds),
                    fmt_speedup(speedup),
                ]);
                chart.bar(
                    &r.cell.device,
                    &r.cell.variant,
                    sim.seconds,
                    &if r.cell.variant == "Naive" {
                        format!("{} s", fmt_seconds(sim.seconds))
                    } else {
                        fmt_speedup(speedup)
                    },
                );
                rows.push(Row {
                    panel_n: n,
                    device: r.cell.device.clone(),
                    variant: r.cell.variant.clone(),
                    threads: sim.threads,
                    seconds: sim.seconds,
                    speedup_vs_naive: speedup,
                    fits_in_memory: true,
                });
            } else {
                let note = match &r.outcome {
                    // Same text fresh or cached: a warm run's table must
                    // be byte-identical to the cold run that filled the
                    // cache.
                    CellOutcome::DoesNotFit | CellOutcome::Cached(CachedOutcome::DoesNotFit) => {
                        "does not fit in memory".to_string()
                    }
                    CellOutcome::Panicked(msg) => format!("panicked: {msg}"),
                    CellOutcome::Failed(msg) => format!("failed: {msg}"),
                    CellOutcome::TimedOut(msg) => format!("timed out: {msg}"),
                    CellOutcome::Report(_)
                    | CellOutcome::Restored(_)
                    | CellOutcome::Gbps(_)
                    | CellOutcome::Cached(_) => {
                        // Report-bearing outcomes took the sim_summary
                        // branch above; STREAM outcomes cannot occur in
                        // a transpose matrix.
                        unreachable!()
                    }
                };
                table.row(vec![
                    r.cell.device.clone(),
                    r.cell.variant.clone(),
                    "-".into(),
                    note,
                    "-".into(),
                ]);
                rows.push(Row {
                    panel_n: n,
                    device: r.cell.device.clone(),
                    variant: r.cell.variant.clone(),
                    threads: 0,
                    seconds: f64::NAN,
                    speedup_vs_naive: f64::NAN,
                    fits_in_memory: false,
                });
            }
        }
        println!("{}", table.render());
        println!("{}", chart.render(48));
    }
    println!(
        "shape check (paper Fig. 2): every optimization step helps on every\n\
         device; the {n2}-panel has no Mango Pi bars (matrix exceeds 1 GB);\n\
         Dynamic beats plain Manual_blocking via better load balance."
    );
    args.write_json(&to_json(&rows));
    args.write_run_log(&results);
}
