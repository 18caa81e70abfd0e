//! Integration tests asserting the *shapes* of the paper's figures on
//! scaled-down workloads: who wins, roughly by what factor, and which
//! qualitative claims of §4 hold in the model. These are the
//! executable form of EXPERIMENTS.md.

use membound::core::experiment::{simulate, simulate_stream_survey, stream_dram_gbps, CellKind};
use membound::core::{BlurConfig, BlurVariant, TransposeConfig, TransposeVariant};
use membound::sim::{Device, DeviceSpec, Machine, SimReport};
use std::collections::HashMap;

fn dram_gbps(device: Device) -> f64 {
    stream_dram_gbps(&Machine::new(device.spec()))
}

fn transpose_report(
    spec: &DeviceSpec,
    variant: TransposeVariant,
    cfg: TransposeConfig,
) -> Option<SimReport> {
    simulate(
        &Machine::new(spec.clone()),
        &CellKind::Transpose { variant, cfg },
    )
    .into_report()
}

fn blur_report(spec: &DeviceSpec, variant: BlurVariant, cfg: BlurConfig) -> SimReport {
    simulate(
        &Machine::new(spec.clone()),
        &CellKind::Blur { variant, cfg },
    )
    .into_report()
    .expect("blur always fits")
}

/// Fig. 1: the cross-device DRAM bandwidth ordering the paper reports.
#[test]
fn fig1_dram_bandwidth_ordering() {
    let xeon = dram_gbps(Device::IntelXeon4310T);
    let rpi = dram_gbps(Device::RaspberryPi4);
    let mango = dram_gbps(Device::MangoPiMqPro);
    let starfive = dram_gbps(Device::StarFiveVisionFive);
    assert!(xeon > 5.0 * rpi, "Xeon dominates: {xeon} vs {rpi}");
    assert!(rpi > mango, "ARM beats the D1: {rpi} vs {mango}");
    assert!(
        mango > starfive,
        "the paper: D1 DRAM beats JH7100 DRAM ({mango} vs {starfive})"
    );
}

/// Fig. 1: within each device, memory levels get slower outward.
#[test]
fn fig1_levels_get_slower_outward() {
    for &device in Device::paper() {
        let survey = simulate_stream_survey(&Machine::new(device.spec()));
        // Compare Copy bandwidth level to level.
        for pair in survey.windows(2) {
            assert!(
                pair[0].gbps[0] > pair[1].gbps[0] * 0.9,
                "{device}: {} ({}) should not be slower than {} ({})",
                pair[0].level,
                pair[0].gbps[0],
                pair[1].level,
                pair[1].gbps[0]
            );
        }
    }
}

/// Fig. 1: the Mango Pi's survey has exactly two rows — its single cache
/// level plus DRAM ("there is only L1 cache ... on the Mango Pi board").
#[test]
fn fig1_mango_pi_has_only_l1_and_dram() {
    let survey = simulate_stream_survey(&Machine::new(Device::MangoPiMqPro.spec()));
    let levels: Vec<&str> = survey.iter().map(|r| r.level.as_str()).collect();
    assert_eq!(levels, vec!["L1D", "DRAM"]);
}

fn transpose_ladder(device: Device, n: usize) -> Option<HashMap<TransposeVariant, f64>> {
    let spec = device.spec();
    let cfg = TransposeConfig::new(n);
    let mut out = HashMap::new();
    for v in TransposeVariant::all() {
        out.insert(v, transpose_report(&spec, v, cfg)?.seconds);
    }
    Some(out)
}

/// Fig. 2: the optimization ladder helps on every device — the paper's
/// central claim that x86 memory optimizations transfer to RISC-V.
#[test]
fn fig2_ladder_improves_everywhere() {
    for &device in Device::paper() {
        let ladder = transpose_ladder(device, 1024).expect("1024^2 fits everywhere");
        let naive = ladder[&TransposeVariant::Naive];
        let best =
            ladder[&TransposeVariant::Dynamic].min(ladder[&TransposeVariant::ManualBlocking]);
        assert!(
            naive / best > 3.0,
            "{device}: best optimized variant should be >3x naive, got {:.1}",
            naive / best
        );
        // Blocking never loses to plain parallelization of the bad loop.
        assert!(
            ladder[&TransposeVariant::Blocking] <= ladder[&TransposeVariant::Parallel] * 1.05,
            "{device}: blocking should not lose to parallel"
        );
    }
}

/// Fig. 2 bottom panel: the 16384² matrix does not fit on the Mango Pi —
/// and only there.
#[test]
fn fig2_16384_missing_only_on_mango_pi() {
    let cfg = TransposeConfig::new(16384);
    for &device in Device::paper() {
        let fits = device.spec().fits_in_memory(cfg.matrix_bytes());
        assert_eq!(
            fits,
            device != Device::MangoPiMqPro,
            "{device}: fits = {fits}"
        );
    }
}

/// §4.2: despite the Raspberry Pi's much larger STREAM bandwidth, the
/// RISC-V boards' *computation-time* gap stays much smaller than the
/// bandwidth gap (the paper's resource-utilization argument).
#[test]
fn fig2_riscv_time_gap_smaller_than_bandwidth_gap() {
    let rpi_bw = dram_gbps(Device::RaspberryPi4);
    let mango_bw = dram_gbps(Device::MangoPiMqPro);
    let bw_gap = rpi_bw / mango_bw;
    let rpi = transpose_ladder(Device::RaspberryPi4, 1024).unwrap();
    let mango = transpose_ladder(Device::MangoPiMqPro, 1024).unwrap();
    let time_gap =
        mango[&TransposeVariant::ManualBlocking] / rpi[&TransposeVariant::ManualBlocking];
    assert!(
        time_gap < bw_gap * 2.0,
        "time gap {time_gap:.1} should stay within ~the bandwidth gap {bw_gap:.1}"
    );
}

/// Fig. 3: optimization raises the §3.3 utilization metric on every
/// device, and the metric stays in a sane range.
#[test]
fn fig3_utilization_rises_with_optimization() {
    let cfg = TransposeConfig::new(1024);
    for &device in Device::paper() {
        let spec = device.spec();
        let stream = stream_dram_gbps(&Machine::new(spec.clone()));
        let util = |v| {
            transpose_report(&spec, v, cfg)
                .unwrap()
                .bandwidth_utilization(cfg.nominal_bytes(), stream)
        };
        let naive = util(TransposeVariant::Naive);
        let best = util(TransposeVariant::Dynamic);
        assert!(best > naive, "{device}: {best} vs {naive}");
        assert!(naive > 0.0 && best <= 1.5, "{device}: util out of range");
    }
}

fn blur_ladder(device: Device, cfg: BlurConfig) -> HashMap<BlurVariant, f64> {
    let spec = device.spec();
    BlurVariant::all()
        .into_iter()
        .map(|v| (v, blur_report(&spec, v, cfg).seconds))
        .collect()
}

/// Fig. 6: the blur ladder is monotone on every device, Unit-stride gives
/// a modest gain, and Memory beats 1D_kernels clearly.
#[test]
fn fig6_blur_ladder_shape() {
    let cfg = BlurConfig::small(255, 319);
    for &device in Device::paper() {
        let ladder = blur_ladder(device, cfg);
        let naive = ladder[&BlurVariant::Naive];
        let unit = ladder[&BlurVariant::UnitStride];
        let onedim = ladder[&BlurVariant::OneDimKernels];
        let memory = ladder[&BlurVariant::Memory];
        let parallel = ladder[&BlurVariant::Parallel];
        assert!(unit < naive, "{device}: unit-stride should help");
        assert!(naive / unit < 3.0, "{device}: ...but modestly");
        assert!(onedim < unit, "{device}: separability should help");
        assert!(
            memory < onedim,
            "{device}: memory pass restructure should help"
        );
        assert!(parallel <= memory * 1.02, "{device}: parallel never loses");
    }
}

/// Fig. 6: the paper's ~19x Xeon "Memory" speedup comes from
/// vectorization — the Xeon's Memory jump must far exceed the scalar
/// RISC-V boards'.
#[test]
fn fig6_xeon_vectorization_gap() {
    let cfg = BlurConfig::small(255, 319);
    let speedup = |device| {
        let ladder = blur_ladder(device, cfg);
        ladder[&BlurVariant::Naive] / ladder[&BlurVariant::Memory]
    };
    let xeon = speedup(Device::IntelXeon4310T);
    let mango = speedup(Device::MangoPiMqPro);
    assert!(
        xeon > 1.3 * mango,
        "vectorizing Xeon should gain far more: {xeon:.1} vs {mango:.1}"
    );
    assert!(xeon > 15.0, "paper reports >19x on Xeon, got {xeon:.1}");
}

/// §4.3: "speedup is limited by the number of available memory channels" —
/// parallel blur on the 2-core, 1-channel-class StarFive gains little.
#[test]
fn fig6_starfive_parallel_blur_is_bandwidth_capped() {
    let cfg = BlurConfig::small(255, 319);
    let ladder = blur_ladder(Device::StarFiveVisionFive, cfg);
    let gain = ladder[&BlurVariant::Memory] / ladder[&BlurVariant::Parallel];
    assert!(
        gain < 1.6,
        "2 cores on a saturated channel cannot give 2x: got {gain:.2}"
    );
}

/// Fig. 7: Memory raises utilization over 1D_kernels everywhere, and the
/// Xeon's Parallel variant raises it further (its extra memory channels).
#[test]
fn fig7_blur_utilization_shape() {
    let cfg = BlurConfig::small(255, 319);
    for &device in Device::paper() {
        let spec = device.spec();
        let stream = stream_dram_gbps(&Machine::new(spec.clone()));
        let util =
            |v| blur_report(&spec, v, cfg).bandwidth_utilization(cfg.nominal_bytes(), stream);
        let onedim = util(BlurVariant::OneDimKernels);
        let memory = util(BlurVariant::Memory);
        assert!(memory > onedim, "{device}: {memory} vs {onedim}");
    }
    let spec = Device::IntelXeon4310T.spec();
    let stream = stream_dram_gbps(&Machine::new(spec.clone()));
    let util = |v| blur_report(&spec, v, cfg).bandwidth_utilization(cfg.nominal_bytes(), stream);
    assert!(
        util(BlurVariant::Parallel) > 2.0 * util(BlurVariant::Memory),
        "Xeon parallel blur should lift utilization substantially"
    );
}
