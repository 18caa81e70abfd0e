//! Integration tests spanning the native and simulated execution paths,
//! the schedules, and the device-model ablation helpers.

use membound::core::experiment::{simulate, stream_dram_gbps, CellKind};
use membound::core::{
    blur_native, transpose_native, BlurConfig, BlurVariant, GbmvConfig, GbmvVariant, SquareMatrix,
    TransposeConfig, TransposeVariant,
};
use membound::image::generate;
use membound::parallel::{Pool, Schedule};
use membound::sim::{Device, DeviceSpec, Machine, PrefetcherConfig, SimReport};

/// Simulate one report-bearing cell on a default machine for `spec`.
fn report(spec: &DeviceSpec, kind: CellKind) -> SimReport {
    simulate(&Machine::new(spec.clone()), &kind)
        .into_report()
        .expect("the workload fits")
}
use membound::trace::{IterCost, TraceSink};

/// The native and simulated paths must agree on the *ordering* of the
/// transpose ladder: any variant the model says is faster must not be
/// slower natively by more than noise allows. We only check the coarse
/// ordering Naive > {Blocking, ManualBlocking} which holds on any real
/// machine with caches.
#[test]
fn native_and_simulated_orderings_agree_coarsely() {
    // 4096^2 f64 = 128 MiB: larger than the last-level cache of any host
    // this runs on, so the naive column walk genuinely misses. At 1024
    // the whole matrix fits in a big Xeon/EPYC L3 and the ordering
    // inverts, which is noise, not a modelling disagreement.
    let n = 4096;
    let cfg = TransposeConfig::new(n);
    let pool = Pool::host();

    let native_time = |variant| {
        // Best of 3 to cut scheduler noise.
        (0..3)
            .map(|_| {
                let mut m = SquareMatrix::indexed(n);
                transpose_native(&mut m, variant, cfg, &pool).as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let naive = native_time(TransposeVariant::Naive);
    let blocked = native_time(TransposeVariant::ManualBlocking);
    assert!(
        blocked < naive,
        "manual blocking must beat naive natively too: {blocked} vs {naive}"
    );

    let spec = Device::IntelXeon4310T.spec();
    let transpose = |variant| report(&spec, CellKind::Transpose { variant, cfg });
    let sim_naive = transpose(TransposeVariant::Naive);
    let sim_blocked = transpose(TransposeVariant::ManualBlocking);
    assert!(sim_blocked.seconds < sim_naive.seconds);
}

/// The simulated blur ladder and the native blur ladder improve in the
/// same direction for the separable step.
#[test]
fn blur_separability_helps_both_paths() {
    let cfg = BlurConfig::small(129, 161);
    let src = generate::test_pattern(cfg.height, cfg.width, cfg.channels);
    let pool = Pool::host();
    let (_, t_naive) = blur_native(&src, BlurVariant::Naive, &cfg, &pool);
    let (_, t_memory) = blur_native(&src, BlurVariant::Memory, &cfg, &pool);
    assert!(
        t_memory < t_naive,
        "separable+memory must beat 2-D natively: {t_memory:?} vs {t_naive:?}"
    );

    let spec = Device::RaspberryPi4.spec();
    let blur = |variant| report(&spec, CellKind::Blur { variant, cfg });
    let sim_naive = blur(BlurVariant::Naive);
    let sim_memory = blur(BlurVariant::Memory);
    assert!(sim_memory.seconds < sim_naive.seconds);
}

/// The prefetch ablation DESIGN.md calls out, which doubles as the §4.3
/// StarFive anomaly: on devices whose DRAM keeps up, disabling the
/// prefetcher slows streaming dramatically; on the bandwidth-starved
/// StarFive it changes nothing, because "low memory bandwidth does not
/// allow data to be prepared on time" — occupancy, not latency, is the
/// binding constraint there.
#[test]
fn prefetch_ablation_matches_the_starfive_anomaly() {
    let run = |spec: &membound::sim::DeviceSpec| {
        Machine::new(spec.clone())
            .simulate(1, |_tid, sink| {
                for i in 0..100_000u64 {
                    sink.load(i * 64, 64);
                }
            })
            .cycles
    };
    for &device in Device::all() {
        let spec = device.spec();
        assert!(
            spec.prefetchers
                .iter()
                .any(|p| *p != PrefetcherConfig::None),
            "{device}: every modelled device has a prefetcher"
        );
        let with = run(&spec);
        let without = run(&spec.without_prefetchers());
        let slowdown = without / with;
        if device == Device::StarFiveVisionFive {
            assert!(
                slowdown < 1.1,
                "{device}: prefetch cannot help a saturated channel (x{slowdown:.2})"
            );
        } else {
            assert!(
                slowdown > 1.5,
                "{device}: no-prefetch should be much slower (x{slowdown:.2})"
            );
        }
    }
}

/// A single-pass blocked triad `a[i] = b[i] + s*c[i]` over three
/// well-separated arrays, in 8 KiB blocks per stream (the
/// `whatif_large_n` kernel and placement).
fn blocked_triad<S: TraceSink + ?Sized>(elements: u64, sink: &mut S) {
    const BLOCK: u64 = 1024;
    let stride = (elements * 8).next_power_of_two().max(1 << 20) + 65 * 64;
    let a = 0x2000_0000_0000u64;
    let (b, c) = (a + stride, a + 2 * stride);
    let mut i = 0;
    while i < elements {
        let hi = (i + BLOCK).min(elements);
        let bytes = (hi - i) * 8;
        sink.load_range(b + i * 8, bytes);
        sink.load_range(c + i * 8, bytes);
        sink.store_range(a + i * 8, bytes);
        i = hi;
    }
    let cost = IterCost::new(2, 2)
        .mem(2, 1)
        .elem_bytes(8)
        .vectorizable(true);
    sink.compute(cost, elements);
}

/// The replayed triad paths keep their counters bit for bit. On the
/// StarFive (random-replacement L1 and L2, U74 prefetcher) every
/// reference replays and the prefetcher fills through random victims;
/// on the Xeon the analytic executor fast-forwards part of the pass
/// after warm-up chunks replayed through the same prefetch path.
#[test]
fn replayed_triad_digests_are_pinned() {
    for (device, elements, pin, fast_forwarded) in [
        (
            Device::StarFiveVisionFive,
            1 << 18,
            0xdddb_9c8b_1c11_590b_u64,
            false,
        ),
        (
            Device::IntelXeon4310T,
            10 << 20,
            0x72f1_4114_f7cb_5d4e,
            true,
        ),
    ] {
        let report = Machine::new(device.spec().without_tlb())
            .simulate(1, |_tid, sink| blocked_triad(elements, sink));
        assert_eq!(
            report.analytic_ops > 0,
            fast_forwarded,
            "{device}: {} ops fast-forwarded",
            report.analytic_ops
        );
        assert_eq!(
            report.stats_digest(),
            pin,
            "{device}: triad digest {:016x} != pinned {pin:016x}",
            report.stats_digest()
        );
    }
}

/// Disabling TLB simulation removes the page-walk penalty of a
/// page-crossing column walk.
#[test]
fn tlb_ablation_speeds_up_column_walks() {
    let spec = Device::MangoPiMqPro.spec();
    let run = |spec: &membound::sim::DeviceSpec| {
        Machine::new(spec.clone())
            .simulate(1, |_tid, sink| {
                for i in 0..50_000u64 {
                    sink.load(i * 8192, 8); // one page per access
                }
            })
            .cycles
    };
    let with = run(&spec);
    let without = run(&spec.without_tlb());
    assert!(
        with > without * 1.1,
        "TLB walks must cost something: {with} vs {without}"
    );
}

/// The dynamic schedule fixes the triangular imbalance in simulation:
/// Dynamic is no slower than ManualBlocking with static scheduling on a
/// multi-core device, and strictly faster when the machine is not
/// bandwidth-bound.
#[test]
fn dynamic_schedule_beats_static_on_the_triangle() {
    let spec = Device::IntelXeon4310T.spec();
    let cfg = TransposeConfig::new(2048);
    let transpose = |variant| report(&spec, CellKind::Transpose { variant, cfg });
    let manual = transpose(TransposeVariant::ManualBlocking);
    let dynamic = transpose(TransposeVariant::Dynamic);
    assert!(dynamic.seconds <= manual.seconds * 1.001);
}

/// Simulated kernels respect barrier semantics: the parallel blur's two
/// passes appear as separate phases whose sum is the total.
#[test]
fn parallel_blur_phases_sum_to_total() {
    let spec = Device::RaspberryPi4.spec();
    let cfg = BlurConfig::small(65, 97);
    let report = report(
        &spec,
        CellKind::Blur {
            variant: BlurVariant::Parallel,
            cfg,
        },
    );
    let phase_sum: f64 = report.phases.iter().map(|p| p.cycles).sum();
    assert!((phase_sum - report.cycles).abs() < 1e-6 * report.cycles.max(1.0));
    assert!(report.phases.len() >= 2);
}

/// Simulator-independent confirmation of §4.2: the blocked variants'
/// reuse distances collapse to the block working set, so an ideal LRU
/// cache of L1 size misses near the compulsory floor — while the
/// element-wise variants miss far above it.
#[test]
fn blocking_collapses_reuse_distances() {
    use membound::core::{TransposeConfig, TransposeTrace, TransposeVariant};
    use membound::trace::reuse::ReuseHistogram;
    use membound::trace::MemAccess;

    struct HistSink(ReuseHistogram);
    impl TraceSink for HistSink {
        fn access(&mut self, access: MemAccess) {
            self.0.record(access.addr);
        }
    }

    let cfg = TransposeConfig::with_block(512, 32);
    let trace = TransposeTrace::new(cfg);
    let misses = |variant: TransposeVariant| {
        let mut sink = HistSink(ReuseHistogram::new(64));
        trace.trace_outer(variant, &mut sink, 0, 0, trace.outer_iterations(variant));
        (
            sink.0.cold_misses(),
            sink.0.misses_for_capacity(32 * 1024 / 64),
        )
    };
    let (naive_cold, naive_misses) = misses(TransposeVariant::Naive);
    let (blocked_cold, blocked_misses) = misses(TransposeVariant::Blocking);
    assert!(
        naive_misses as f64 > naive_cold as f64 * 1.5,
        "naive re-touches far beyond L1: {naive_misses} vs cold {naive_cold}"
    );
    assert_eq!(
        blocked_misses, blocked_cold,
        "blocked variant must miss only compulsorily at L1 size"
    );
}

/// Recorded traces survive the binary codec and replay into the
/// simulator with identical results.
#[test]
fn recorded_traces_replay_identically_through_the_codec() {
    use membound::trace::TraceBuffer;

    // Record a small blur trace.
    let cfg = BlurConfig::small(33, 49);
    let trace = membound::core::BlurTrace::new(cfg);
    let mut recorded = TraceBuffer::new();
    trace.trace_2d(membound::core::BlurVariant::Naive, &mut recorded, 0, 4);

    // Round-trip through the binary format.
    let mut bytes = Vec::new();
    recorded.write_binary(&mut bytes).unwrap();
    let decoded = TraceBuffer::read_binary(&mut bytes.as_slice()).unwrap();

    // Replay both against the same device: bit-identical reports.
    let machine = Machine::new(Device::MangoPiMqPro.spec());
    let run = |buf: &TraceBuffer| {
        machine.simulate(1, |_tid, sink| {
            buf.replay_into(sink);
        })
    };
    let a = run(&recorded);
    let b = run(&decoded);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.dram, b.dram);
}

/// Native parallel runs under every schedule produce identical results
/// (scheduling must never change semantics).
#[test]
fn schedules_do_not_change_results() {
    let n = 257; // deliberately not a multiple of anything
    let reference = {
        let mut m = SquareMatrix::indexed(n);
        m.transpose_naive();
        m
    };
    for threads in [1, 3, 8] {
        for schedule in [
            Schedule::Static,
            Schedule::StaticChunk(5),
            Schedule::Dynamic(2),
            Schedule::Guided(1),
        ] {
            // Exercise the pool directly with a hand-rolled parallel
            // transpose over rows.
            let mut m = SquareMatrix::indexed(n);
            {
                let shared = membound::parallel::SharedSlice::new(m.as_mut_slice());
                Pool::new(threads).parallel_for(0..n as u64, schedule, |i| {
                    let i = i as usize;
                    for j in i + 1..n {
                        // SAFETY: disjoint element pairs per row index.
                        unsafe { shared.swap(i * n + j, j * n + i) };
                    }
                });
            }
            assert_eq!(m, reference, "threads={threads} schedule={schedule:?}");
        }
    }
}

/// One small cell per report-bearing kernel kind, plus one STREAM
/// Triad DRAM bandwidth, pinned bit for bit. Together with the figure
/// pins these fix what every kernel program emits into the simulator.
#[test]
fn kernel_cell_digests_are_pinned() {
    let spec = Device::RaspberryPi4.spec();
    let bcfg = BlurConfig::small(96, 96);
    let cells = [
        (
            CellKind::Transpose {
                variant: TransposeVariant::Dynamic,
                cfg: TransposeConfig::with_block(512, 32),
            },
            0xd3ea_a8a0_72ea_0711_u64,
        ),
        (
            CellKind::Blur {
                variant: BlurVariant::Parallel,
                cfg: bcfg,
            },
            0xd9b8_d105_649c_d7dd,
        ),
        (
            CellKind::FusedBlur {
                cfg: bcfg,
                threads: 4,
            },
            0x5bfa_7302_97f5_7996,
        ),
        (
            CellKind::Gbmv {
                variant: GbmvVariant::Parallel,
                cfg: GbmvConfig::with_bands(2048, 32, 32, 128),
            },
            0x79cf_8821_a9cb_99d6,
        ),
    ];
    for (kind, pin) in cells {
        let got = report(&spec, kind.clone()).stats_digest();
        assert_eq!(got, pin, "{kind:?}: {got:016x} != pinned {pin:016x}");
    }
    let triad = stream_dram_gbps(&Machine::new(Device::StarFiveVisionFive.spec()));
    assert_eq!(
        triad.to_bits(),
        0x3fe2_c113_d1f6_a277,
        "StarFive triad DRAM GB/s {triad} moved"
    );
}
