//! ABLATION: block-size sweep for the blocked transposition variants.
//!
//! DESIGN.md §7: how sensitive are `Blocking` and `Manual_blocking` to the
//! block parameter on each device? The sweet spot balances cache fit (the
//! staging buffer is `block² × 8` bytes) against loop overhead.

use membound_bench::{scale_banner, Args};
use membound_core::experiment::{simulate, CellKind};
use membound_core::report::{fmt_seconds, to_json, TextTable};
use membound_core::{TransposeConfig, TransposeVariant};
use membound_sim::{Device, Machine};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    device: String,
    variant: String,
    block: usize,
    seconds: f64,
}

fn main() {
    let args = Args::parse("ablation_block_size");
    let n = if args.full { 8192 } else { 2048 };
    println!("ABLATION: transpose block-size sweep, n = {n}");
    println!("{}\n", scale_banner(args.full));

    let blocks = [16usize, 32, 64, 128, 256];
    let mut rows = Vec::new();
    for variant in [TransposeVariant::Blocking, TransposeVariant::ManualBlocking] {
        println!("{}:", variant.label());
        let mut table = TextTable::new(
            std::iter::once("device".to_owned())
                .chain(blocks.iter().map(|b| format!("blk={b}")))
                .collect(),
        );
        for device in Device::paper() {
            let machine = Machine::new(device.spec());
            let mut cells = vec![device.label().to_owned()];
            for &block in &blocks {
                let cfg = TransposeConfig::with_block(n, block);
                let seconds = simulate(&machine, &CellKind::Transpose { variant, cfg })
                    .into_report()
                    .expect("matrix fits")
                    .seconds;
                cells.push(fmt_seconds(seconds));
                rows.push(Row {
                    device: device.label().into(),
                    variant: variant.label().into(),
                    block,
                    seconds,
                });
            }
            table.row(cells);
        }
        println!("{}", table.render());
    }
    println!(
        "expectation: Manual_blocking degrades at blk=256 (a 512 KiB staging\n\
         buffer thrashes every modelled L1/L2) and at blk=16 (per-block\n\
         overhead); mid-size blocks win."
    );
    args.write_json(&to_json(&rows));
}
