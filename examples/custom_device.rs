//! Model your own device: build a hypothetical "next-generation RISC-V"
//! board — the C906 upgraded with an L2 cache, a wider pipeline and faster
//! DRAM — and ask whether it would close the gap to the Raspberry Pi 4 on
//! the paper's kernels.
//!
//! This is the forward-looking question the paper's conclusion poses
//! ("the prospects look quite real"); the simulator lets us quantify it.
//!
//! ```sh
//! cargo run --release --example custom_device
//! ```

use membound::core::{
    experiment::{simulate, CellKind},
    BlurConfig, BlurVariant, TransposeConfig, TransposeVariant,
};
use membound::sim::{
    CacheConfig, CoreConfig, Device, DeviceSpec, DramConfig, Machine, PageWalk, PrefetcherConfig,
    ReplacementPolicy, TlbConfig,
};

/// A plausible next-generation successor to the Allwinner D1: dual-issue,
/// quad-core, with a shared L2 and twice the DRAM bandwidth.
fn next_gen_riscv() -> DeviceSpec {
    let freq = 1.5;
    DeviceSpec {
        name: "Hypothetical next-gen RISC-V SBC".into(),
        isa: "RV64GCV".into(),
        cores: 4,
        core: CoreConfig::new("next-gen core", freq, 2, 0, 4.0),
        caches: vec![
            CacheConfig::new("L1D", 32 * 1024, 4, 64)
                .policy(ReplacementPolicy::Lru)
                .latency(3)
                .bytes_per_cycle(16.0),
            CacheConfig::new("L2", 1024 * 1024, 16, 64)
                .policy(ReplacementPolicy::Lru)
                .latency(18)
                .bytes_per_cycle(16.0)
                .shared(),
        ],
        prefetchers: vec![PrefetcherConfig::stream(8), PrefetcherConfig::None],
        dtlb: TlbConfig::fully_associative("DTLB", 32),
        l2tlb: Some(TlbConfig::set_associative("L2 TLB", 512, 4).latency(7)),
        walk: PageWalk {
            levels: 3,
            overhead_cycles: 30,
        },
        dram: DramConfig::from_gbps(180, 4.0, freq, 2),
        dram_capacity_bytes: 4 << 30,
        tlb_enabled: true,
    }
}

fn main() {
    let candidate = next_gen_riscv();
    let contenders: Vec<(String, DeviceSpec)> = vec![
        (
            Device::MangoPiMqPro.label().into(),
            Device::MangoPiMqPro.spec(),
        ),
        (
            Device::RaspberryPi4.label().into(),
            Device::RaspberryPi4.spec(),
        ),
        (candidate.name.clone(), candidate),
    ];

    let tcfg = TransposeConfig::new(2048);
    println!("== transpose, Dynamic variant, 2048 x 2048 ==");
    for (name, spec) in &contenders {
        let kind = CellKind::Transpose {
            variant: TransposeVariant::Dynamic,
            cfg: tcfg,
        };
        let r = simulate(&Machine::new(spec.clone()), &kind)
            .into_report()
            .expect("fits");
        println!("  {name:36} {:>8.1} ms", r.seconds * 1e3);
    }

    let bcfg = BlurConfig::small(507, 636);
    println!("\n== blur, Parallel variant, 636 x 507 ==");
    for (name, spec) in &contenders {
        let kind = CellKind::Blur {
            variant: BlurVariant::Parallel,
            cfg: bcfg,
        };
        let r = simulate(&Machine::new(spec.clone()), &kind)
            .into_report()
            .expect("blur always fits");
        println!("  {name:36} {:>8.1} ms", r.seconds * 1e3);
    }

    println!(
        "\nAn L2 cache, a second issue slot and commodity-grade DRAM take the\n\
         modelled RISC-V board from several times slower than the Raspberry\n\
         Pi 4 to rough parity — the microarchitectural gap, not the ISA, is\n\
         what separates today's boards from ARM."
    );
}
