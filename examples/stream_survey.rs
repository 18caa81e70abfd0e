//! STREAM survey (the paper's Fig. 1 methodology) on the simulated
//! devices, plus a native STREAM run on the host for reference.
//!
//! ```sh
//! cargo run --release --example stream_survey
//! ```

use membound::core::{experiment, run_native_stream, StreamOp};
use membound::parallel::Pool;
use membound::sim::{Device, Machine};

fn main() {
    println!("== STREAM survey ==\n");

    // Native host numbers first: real measured bandwidth.
    let pool = Pool::host();
    println!("native host ({} threads, 32 MiB arrays):", pool.threads());
    for op in StreamOp::all() {
        let r = run_native_stream(op, 4 << 20, 5, &pool);
        println!("  {:5}  {:>8.2} GB/s", op.label(), r.gbps);
    }

    // Simulated devices: per-level breakdown.
    for &device in Device::all() {
        let spec = device.spec();
        println!("\n{device} (modelled):");
        for row in experiment::simulate_stream_survey(&Machine::new(spec.clone())) {
            let mode = if row.private_scaled {
                format!("sequential x{}", spec.cores)
            } else {
                format!("{} threads", spec.cores)
            };
            println!(
                "  {:5} ({mode:>14})  Copy {:>7.2}  Scale {:>7.2}  Add {:>7.2}  Triad {:>7.2}  GB/s",
                row.level, row.gbps[0], row.gbps[1], row.gbps[2], row.gbps[3]
            );
        }
    }

    println!(
        "\nReading the table like the paper reads Fig. 1: the RISC-V boards'\n\
         memory subsystems trail ARM, which trails the Xeon — the Mango Pi\n\
         lacks an L2 entirely and the StarFive sits behind a narrow DRAM\n\
         channel."
    );
}
