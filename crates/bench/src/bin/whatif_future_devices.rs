//! WHAT-IF: the paper's kernels on plausible RISC-V successors.
//!
//! The conclusion of the paper argues RISC-V "shows a high potential for
//! further development". This projection runs the best transpose and blur
//! variants on the VisionFive 2 model (the direct successor of the
//! paper's board) and on a SonicBOOM-class out-of-order RISC-V server
//! model, against the paper's four devices.

use membound_bench::{scale_banner, Args};
use membound_core::experiment::{simulate, stream_dram_gbps, CellKind};
use membound_core::figures;
use membound_core::report::{fmt_seconds, to_json, TextTable};
use membound_core::runner::resolve_jobs;
use membound_core::{BlurVariant, TransposeConfig, TransposeVariant};
use membound_sim::{future, Device, DeviceSpec, JobBudget, Machine};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    device: String,
    stream_gbps: f64,
    transpose_dynamic_seconds: f64,
    blur_parallel_seconds: f64,
}

fn main() {
    let args = Args::parse("whatif_future_devices");
    let tcfg = TransposeConfig::new(figures::transpose_sizes(args.full)[0]);
    let bcfg = figures::blur_config(args.full);
    println!("WHAT-IF: best-variant kernels on RISC-V successors");
    println!("{}\n", scale_banner(args.full));

    let mut specs: Vec<DeviceSpec> = Device::paper().iter().map(|d| d.spec()).collect();
    specs.push(future::visionfive2());
    specs.push(future::with_vectorization(future::visionfive2(), 16));
    specs.push(future::riscv_server_class());

    let mut table = TextTable::new(
        [
            "device",
            "STREAM GB/s",
            "transpose Dynamic",
            "blur Parallel",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut rows = Vec::new();
    // This binary walks devices serially, so the whole job budget is
    // spare for the simulator's per-core fan-out on each device.
    let budget = JobBudget::new(resolve_jobs(args.jobs));
    for spec in &specs {
        let machine = Machine::new(spec.clone()).with_budget(budget.clone());
        let stream = stream_dram_gbps(&machine);
        let seconds = |kind| {
            simulate(&machine, &kind)
                .into_report()
                .map_or(f64::NAN, |r| r.seconds)
        };
        let transpose = seconds(CellKind::Transpose {
            variant: TransposeVariant::Dynamic,
            cfg: tcfg,
        });
        let blur = seconds(CellKind::Blur {
            variant: BlurVariant::Parallel,
            cfg: bcfg,
        });
        table.row(vec![
            spec.name.clone(),
            format!("{stream:.2}"),
            fmt_seconds(transpose),
            fmt_seconds(blur),
        ]);
        rows.push(Row {
            device: spec.name.clone(),
            stream_gbps: stream,
            transpose_dynamic_seconds: transpose,
            blur_parallel_seconds: blur,
        });
    }
    println!("{}", table.render());
    println!(
        "reading: the VisionFive 2 model closes most of the gap to the\n\
         Raspberry Pi 4 (more cores, bigger L2, working DRAM), and the\n\
         SonicBOOM-class server model lands within striking distance of the\n\
         Xeon per-channel — microarchitecture and memory system, not the\n\
         ISA, set the pace. This is the quantified form of the paper's\n\
         concluding outlook."
    );
    args.write_json(&to_json(&rows));
}
