//! Criterion benchmarks of the simulation hot path: the repeat-line
//! short-circuit and the batched `access_range` probe loop in
//! `CorePipeline`, measured against reference machines built with
//! [`Machine::without_fastpath`]. These are the paper's actual access
//! patterns — unit-stride sweeps and same-line repeat touches — so the
//! `fast/` vs `reference/` pairs put a number on what the fast path buys.
//!
//! Run with `cargo bench -p membound-bench --bench sim_hotpath`; the CI
//! `bench-smoke` job runs the same suite in `--test` mode. The committed
//! `BENCH_sim.json` at the repo root records the wall-clock baseline the
//! CI regression gate compares against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use membound_core::experiment::{simulate, CellKind};
use membound_core::{TransposeConfig, TransposeVariant};
use membound_sim::{Device, Machine};
use membound_trace::TraceSink;

/// Same-line repeat touches: the pattern the armed-line short-circuit
/// turns into bare counter increments.
fn replay_repeat_touch(machine: &Machine, touches: u64) {
    machine.simulate(1, |_tid, sink| {
        for i in 0..touches / 8 {
            let line = (i % 4) * 64;
            for e in 0..8 {
                sink.load(line + e * 8, 8);
            }
        }
    });
}

/// Unit-stride per-element sweep: every line is touched 8 times by
/// consecutive 8-byte references before moving on.
fn replay_unit_stride(machine: &Machine, elems: u64) {
    machine.simulate(1, |_tid, sink| {
        for i in 0..elems {
            sink.load(i * 8, 8);
        }
    });
}

/// The same sweep expressed as bulk ranges: one `access_range` call per
/// 4 KiB page, exercising the per-page translation amortization.
fn replay_ranges(machine: &Machine, bytes: u64) {
    machine.simulate(1, |_tid, sink| {
        for page in 0..bytes / 4096 {
            sink.load_range(page * 4096, 4096);
        }
    });
}

fn fast_and_reference(device: Device) -> [(&'static str, Machine); 2] {
    [
        ("fast", Machine::new(device.spec())),
        ("reference", Machine::new(device.spec()).without_fastpath()),
    ]
}

fn bench_repeat_touch(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_repeat_touch");
    let touches = 400_000u64;
    group.throughput(Throughput::Elements(touches));
    for device in [Device::MangoPiMqPro, Device::IntelXeon4310T] {
        for (mode, machine) in fast_and_reference(device) {
            let id = format!("{mode}/{}", device.label());
            group.bench_with_input(BenchmarkId::from_parameter(id), &machine, |b, machine| {
                b.iter(|| replay_repeat_touch(machine, touches));
            });
        }
    }
    group.finish();
}

fn bench_unit_stride(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_unit_stride");
    let elems = 400_000u64;
    group.throughput(Throughput::Elements(elems));
    for device in [Device::MangoPiMqPro, Device::IntelXeon4310T] {
        for (mode, machine) in fast_and_reference(device) {
            let id = format!("{mode}/{}", device.label());
            group.bench_with_input(BenchmarkId::from_parameter(id), &machine, |b, machine| {
                b.iter(|| replay_unit_stride(machine, elems));
            });
        }
    }
    group.finish();
}

/// Strided column walk expressed as `access_strided` batches: one batch
/// per column of a 512×512 doubles matrix (stride = one 4096-byte row),
/// the access pattern the transpose column side and the blur vertical
/// pass emit. The `reference/` leg dispatches each batch element by
/// element through the trait defaults.
fn replay_strided_batches(machine: &Machine, cols: u64, rows: u64) {
    machine.simulate(1, |_tid, sink| {
        for col in 0..cols {
            sink.access_strided(col * 8, (cols * 8) as i64, rows, 8, false);
        }
    });
}

/// The same walk as read-modify-write batches — the in-place transpose
/// column side (load + store per element against one armed line).
fn replay_strided_rmw(machine: &Machine, cols: u64, rows: u64) {
    machine.simulate(1, |_tid, sink| {
        for col in 0..cols {
            sink.access_strided_rmw(col * 8, (cols * 8) as i64, rows, 8);
        }
    });
}

fn bench_strided(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_strided");
    let (cols, rows) = (512u64, 512u64);
    group.throughput(Throughput::Elements(cols * rows));
    for device in [Device::MangoPiMqPro, Device::IntelXeon4310T] {
        for (mode, machine) in fast_and_reference(device) {
            let id = format!("{mode}/{}", device.label());
            group.bench_with_input(BenchmarkId::from_parameter(id), &machine, |b, machine| {
                b.iter(|| replay_strided_batches(machine, cols, rows));
            });
            let id = format!("rmw_{mode}/{}", device.label());
            group.bench_with_input(BenchmarkId::from_parameter(id), &machine, |b, machine| {
                b.iter(|| replay_strided_rmw(machine, cols, rows));
            });
        }
    }
    group.finish();
}

fn bench_range_vs_elements(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_range_sweep");
    let bytes = 8u64 << 20;
    group.throughput(Throughput::Bytes(bytes));
    // The StarFive runs random replacement under the U74 prefetcher, so
    // its prefetch fills draw the replacement RNG.
    for device in [
        Device::MangoPiMqPro,
        Device::IntelXeon4310T,
        Device::StarFiveVisionFive,
    ] {
        for (mode, machine) in fast_and_reference(device) {
            let id = format!("{mode}/{}", device.label());
            group.bench_with_input(BenchmarkId::from_parameter(id), &machine, |b, machine| {
                b.iter(|| replay_ranges(machine, bytes));
            });
        }
    }
    group.finish();
}

/// The fig2 hot loop at reduced scale: serial naive transpose on the
/// MangoPi preset — the cell the CI wall-time gate times at full scale.
fn bench_fig2_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_fig2_transpose_512");
    group.sample_size(10);
    let kind = CellKind::Transpose {
        variant: TransposeVariant::Naive,
        cfg: TransposeConfig::new(512),
    };
    let machine = Machine::new(Device::MangoPiMqPro.spec());
    group.bench_function(BenchmarkId::from_parameter("mango/naive"), |b| {
        b.iter(|| simulate(&machine, &kind));
    });
    group.finish();
}

/// Blocked single-pass triad (the `whatif_large_n` kernel at reduced
/// scale) on the TLB-off Xeon preset: the analytic executor's headline
/// shape. `analytic/` fast-forwards the steady state after warm-up;
/// `replay/` forces full per-line replay of the identical trace, so the
/// pair puts a number on what steady-state extrapolation buys at a size
/// (2^24 elements, 128 MiB/array — the smallest size whose ~100 fold
/// chunks leave room for the w=16 warm-up the shared L3 needs) that the
/// suite can still afford to replay.
fn replay_blocked_triad(machine: &Machine, elements: u64) {
    const BLOCK: u64 = 1024;
    let stride = (elements * 8).next_power_of_two().max(1 << 20) + 65 * 64;
    let (a, b, c) = (1u64 << 41, (1 << 41) + stride, (1 << 41) + 2 * stride);
    machine.simulate(1, |_tid, sink| {
        for blk in 0..elements / BLOCK {
            let off = blk * BLOCK * 8;
            sink.load_range(b + off, BLOCK * 8);
            sink.load_range(c + off, BLOCK * 8);
            sink.store_range(a + off, BLOCK * 8);
        }
    });
}

fn bench_analytic(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_analytic");
    group.sample_size(10);
    let elements = 1u64 << 24;
    group.throughput(Throughput::Elements(elements));
    let spec = Device::IntelXeon4310T.spec().without_tlb();
    let modes = [
        ("analytic", Machine::new(spec.clone())),
        ("replay", Machine::new(spec).with_analytic(false)),
    ];
    for (mode, machine) in modes {
        let id = format!("{mode}/xeon_triad_4m");
        group.bench_with_input(BenchmarkId::from_parameter(id), &machine, |b, machine| {
            b.iter(|| replay_blocked_triad(machine, elements));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_repeat_touch,
    bench_unit_stride,
    bench_strided,
    bench_range_vs_elements,
    bench_fig2_cell,
    bench_analytic
);
criterion_main!(benches);
