//! Criterion benchmarks of the *simulator itself*: reference-replay
//! throughput per device model, and end-to-end simulated-kernel runtimes
//! at a reduced scale. These guard against performance regressions in the
//! cache/TLB/prefetcher pipeline (the figure binaries replay hundreds of
//! millions of probes, so simulator speed is a feature).
//!
//! Run with `cargo bench -p membound-bench --bench simulated_devices`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use membound_core::experiment::{simulate, CellKind};
use membound_core::{BlurConfig, BlurVariant, TransposeConfig, TransposeVariant};
use membound_sim::{Device, Machine};
use membound_trace::TraceSink;

/// Replay a fixed streaming+strided probe mix through one core.
fn replay_mix(machine: &Machine, probes: u64) {
    machine.simulate(1, |_tid, sink| {
        for i in 0..probes / 2 {
            sink.load(i * 64, 64); // sequential stream
            sink.load((i * 8192) % (1 << 30), 8); // strided walk
        }
    });
}

fn bench_replay_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_replay_throughput");
    let probes = 200_000u64;
    group.throughput(Throughput::Elements(probes));
    for device in Device::all() {
        let machine = Machine::new(device.spec());
        group.bench_with_input(
            BenchmarkId::from_parameter(device.label()),
            &machine,
            |b, machine| b.iter(|| replay_mix(machine, probes)),
        );
    }
    group.finish();
}

fn bench_simulated_transpose(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_transpose_512");
    group.sample_size(10);
    let cfg = TransposeConfig::new(512);
    for device in [Device::MangoPiMqPro, Device::IntelXeon4310T] {
        for variant in [TransposeVariant::Naive, TransposeVariant::Dynamic] {
            let id = format!("{}/{}", device.label(), variant.label());
            group.bench_function(BenchmarkId::from_parameter(id), |b| {
                let machine = Machine::new(device.spec());
                b.iter(|| simulate(&machine, &CellKind::Transpose { variant, cfg }));
            });
        }
    }
    group.finish();
}

fn bench_simulated_blur(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_blur_127x159");
    group.sample_size(10);
    let cfg = BlurConfig::small(127, 159);
    for device in [Device::StarFiveVisionFive, Device::RaspberryPi4] {
        for variant in [BlurVariant::Naive, BlurVariant::Memory] {
            let id = format!("{}/{}", device.label(), variant.label());
            group.bench_function(BenchmarkId::from_parameter(id), |b| {
                let machine = Machine::new(device.spec());
                b.iter(|| simulate(&machine, &CellKind::Blur { variant, cfg }));
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_replay_throughput,
    bench_simulated_transpose,
    bench_simulated_blur
);
criterion_main!(benches);
