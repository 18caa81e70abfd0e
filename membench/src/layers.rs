//! Per-layer probes of the traced run: ablations, fan-out, component
//! replays, native baselines, deterministic counters and span self
//! times. Every probe times the benchmark's own call into a public
//! function of the layer; nothing inside the program is instrumented.

use crate::report::Metrics;
use crate::sinks::CaptureSink;
use crate::spans::{self, span, Span};
use crate::workloads::Work;
use membound_core::runner::CellKind;
use membound_core::telemetry::SimRecord;
use membound_core::{transpose_native, SquareMatrix};
use membound_parallel::Pool;
use membound_sim::{Cache, Machine, Prefetcher, SimReport, Tlb};
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric, with its unit, in report order. Metrics of a
/// layer that a workload does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.emit_s", "s"),
    ("trace.refs", "count"),
    ("trace.strided_batches", "count"),
    ("ir.record_s", "s"),
    ("ir.ops", "count"),
    ("machine.simulate_s", "s"),
    ("machine.ns_per_ref", "ns"),
    ("machine.host_workers", "workers"),
    ("machine.fanout_speedup", "x"),
    ("tlb.share", "ratio"),
    ("tlb.dtlb_lookups", "count"),
    ("tlb.dtlb_misses", "count"),
    ("tlb.l2tlb_misses", "count"),
    ("tlb.ns_per_lookup", "ns"),
    ("prefetch.share", "ratio"),
    ("prefetch.issued", "count"),
    ("prefetch.ns_per_observe", "ns"),
    ("cache.l1.accesses", "count"),
    ("cache.l1.misses", "count"),
    ("cache.l2.misses", "count"),
    ("cache.l3.misses", "count"),
    ("cache.ns_per_access", "ns"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("analytic.ff_ops", "count"),
    ("analytic.fallback_ops", "count"),
    ("analytic.ff_frac", "ratio"),
    ("analytic.coverage_pct", "%"),
    ("analytic.gain_s", "s"),
    ("runner.overhead_s", "s"),
    ("runner.deduped_cells", "count"),
    ("runner.cell_max_s", "s"),
    ("resultcache.lookup_ms", "ms"),
    ("resultcache.insert_ms", "ms"),
    ("resultcache.hit_ratio", "ratio"),
    ("telemetry.append_ms", "ms"),
    ("telemetry.validate_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.run_s", "s"),
    ("serve.rejected", "count"),
    ("submit_cold_p50_s", "s"),
    ("submit_warm_p50_ms", "ms"),
    ("submit_warm_p90_ms", "ms"),
    ("submit_warm_samples", "samples"),
    ("fail_frac", "ratio"),
    ("native.kernel_s", "s"),
    ("sim.overhead_x", "x"),
    ("bench.trace_overhead_pct", "%"),
    ("host.probe_ms", "ms"),
    ("self.bench_s", "s"),
    ("self.engine_s", "s"),
    ("self.profile_s", "s"),
    ("self.trace_s", "s"),
    ("self.ir_s", "s"),
    ("self.machine_s", "s"),
    ("self.ablation_s", "s"),
    ("self.replay_s", "s"),
    ("self.native_s", "s"),
    ("self.resultcache_s", "s"),
    ("self.telemetry_s", "s"),
    ("self.client_s", "s"),
];

/// Write 0 for every metric whose layer (first name component, `submit`
/// for the un-dotted `submit_*`) or full name
/// is listed: metrics of a layer the workload does not exercise.
pub fn put_not_on_path(m: &mut Metrics, layers_or_names: &[&str]) {
    for (name, unit) in PER_LAYER {
        let layer = match name.split_once('.') {
            Some((layer, _)) => layer,
            None if name.starts_with("submit_") => "submit",
            None => name,
        };
        if layers_or_names.contains(&layer) || layers_or_names.contains(name) {
            m.put(name, 0.0, unit);
        }
    }
}

/// Self time per layer from the recorded spans: a span's layer is the
/// first component of its name.
pub fn put_self_times(m: &mut Metrics, spans: &[Span]) {
    let by_name = spans::self_seconds(spans);
    for (name, _) in PER_LAYER {
        if let Some(layer) = name
            .strip_prefix("self.")
            .and_then(|n| n.strip_suffix("_s"))
        {
            let total = by_name
                .iter()
                .filter(|(span, _)| span.split('.').next() == Some(layer))
                .fold(0.0, |acc, (_, s)| acc + s);
            m.put(name, total, "s");
        }
    }
}

/// Deterministic counters summed over cells.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LayerCounts {
    pub dtlb_lookups: u64,
    pub dtlb_misses: u64,
    pub l2tlb_misses: u64,
    pub prefetch_issued: u64,
    pub l1_accesses: u64,
    pub level_misses: [u64; 3],
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub ff_ops: u64,
    pub fallback_ops: u64,
}

impl LayerCounts {
    pub fn of(reports: &[SimReport]) -> Self {
        let mut c = LayerCounts::default();
        for r in reports {
            c.dtlb_lookups += r.dtlb_stats.accesses();
            c.dtlb_misses += r.dtlb_stats.misses;
            c.l2tlb_misses += r.l2tlb_stats.as_ref().map_or(0, |s| s.misses);
            c.prefetch_issued += r
                .cache_stats
                .iter()
                .map(|s| s.prefetches_issued)
                .sum::<u64>();
            c.l1_accesses += r.cache_stats[0].accesses();
            for (i, s) in r.cache_stats.iter().take(3).enumerate() {
                c.level_misses[i] += s.misses;
            }
            c.dram_reads += r.dram.reads;
            c.dram_writes += r.dram.writes;
            c.ff_ops += r.analytic_ops;
            c.fallback_ops += r.replay_fallback_ops;
        }
        c
    }

    /// The same counters from telemetry records (served jobs), which
    /// carry no prefetch or second-level TLB counters.
    pub fn of_records(records: &[SimRecord]) -> Self {
        let mut c = LayerCounts::default();
        for r in records {
            c.dtlb_lookups += r.dtlb.hits + r.dtlb.misses;
            c.dtlb_misses += r.dtlb.misses;
            if let Some(l1) = r.cache_levels.first() {
                c.l1_accesses += l1.hits + l1.misses;
            }
            for (i, l) in r.cache_levels.iter().take(3).enumerate() {
                c.level_misses[i] += l.misses;
            }
            c.dram_reads += r.dram_reads;
            c.dram_writes += r.dram_writes;
            c.ff_ops += r.analytic_ops.unwrap_or(0);
            c.fallback_ops += r.replay_fallback_ops.unwrap_or(0);
        }
        c
    }

    pub fn put(&self, m: &mut Metrics, emitted_refs: u64) {
        m.count("tlb.dtlb_lookups", self.dtlb_lookups);
        m.count("tlb.dtlb_misses", self.dtlb_misses);
        m.count("tlb.l2tlb_misses", self.l2tlb_misses);
        m.count("prefetch.issued", self.prefetch_issued);
        m.count("cache.l1.accesses", self.l1_accesses);
        m.count("cache.l1.misses", self.level_misses[0]);
        m.count("cache.l2.misses", self.level_misses[1]);
        m.count("cache.l3.misses", self.level_misses[2]);
        m.count("dram.reads", self.dram_reads);
        m.count("dram.writes", self.dram_writes);
        m.count("analytic.ff_ops", self.ff_ops);
        m.count("analytic.fallback_ops", self.fallback_ops);
        m.put(
            "analytic.ff_frac",
            self.ff_ops as f64 / emitted_refs.max(1) as f64,
            "ratio",
        );
    }
}

/// One simulation of `work` on `machine` under span `name`: its report
/// and wall seconds.
fn time_sim(work: &Work, machine: &Machine, name: &'static str) -> (SimReport, f64) {
    let _s = span(name);
    let t = Instant::now();
    let report = work.simulate(machine);
    (report, t.elapsed().as_secs_f64())
}

/// Ablation results over the profile cells.
#[derive(Debug, Default)]
pub struct Ablation {
    /// Share of host time that disappears with translation off.
    pub tlb_share: f64,
    /// Share of host time that disappears with the prefetchers off.
    pub prefetch_share: f64,
    /// Replay time minus analytic time, summed over the profile cells.
    pub analytic_gain_s: f64,
    /// Serial host time over fanned-out host time, summed over the
    /// multi-core profile cells (0 when there are none).
    pub fanout_speedup: f64,
    /// Profile cells whose forced replay (`with_analytic(false)`) does
    /// not reproduce the cell's digest in the timed pass.
    pub replay_mismatches: u64,
}

/// Time each profile cell as built, without translation (when it has
/// any), without prefetchers (minimum of 3 runs when a cell takes under
/// a second, else 1), once with the analytic executor off, and, for a
/// multi-core cell, once on a single host worker. `targets` pairs each
/// cell with its digest in the timed pass, which the forced replay must
/// reproduce.
pub fn ablations(targets: &[(Work, u64)]) -> Ablation {
    let (mut base, mut no_tlb, mut no_pf, mut gain) = (0.0, 0.0, 0.0, 0.0);
    let (mut fanned, mut serial) = (0.0, 0.0);
    let mut replay_mismatches = 0;
    for (work, digest) in targets {
        let spec = work.spec().clone();
        let on = work.machine(spec.clone());
        let first = time_sim(work, &on, "machine.simulate").1;
        let reps = if first < 1.0 { 3 } else { 1 };
        let best = |machine: &Machine, name: &'static str, seed: Option<f64>| {
            (0..reps)
                .map(|i| match (i, seed) {
                    (0, Some(s)) => s,
                    _ => time_sim(work, machine, name).1,
                })
                .fold(f64::INFINITY, f64::min)
        };
        let b = best(&on, "machine.simulate", Some(first));
        base += b;
        // With translation already off the ablation is the same machine.
        no_tlb += if spec.tlb_enabled {
            best(
                &work.machine(spec.clone().without_tlb()),
                "ablation.tlb",
                None,
            )
        } else {
            b
        };
        no_pf += best(
            &work.machine(spec.clone().without_prefetchers()),
            "ablation.prefetch",
            None,
        );
        let (replay, replay_s) =
            time_sim(work, &on.clone().with_analytic(false), "ablation.analytic");
        gain += replay_s - b;
        if replay.stats_digest() != *digest {
            eprintln!(
                "{}: forced replay gave {:016x}, the timed pass {digest:016x}",
                work.label(),
                replay.stats_digest()
            );
            replay_mismatches += 1;
        }
        if work.threads() > 1 {
            fanned += b;
            serial += best(&Machine::new(spec.clone()), "ablation.fanout", None);
        }
    }
    Ablation {
        tlb_share: 1.0 - no_tlb / base,
        prefetch_share: 1.0 - no_pf / base,
        analytic_gain_s: gain,
        fanout_speedup: if fanned > 0.0 { serial / fanned } else { 0.0 },
        replay_mismatches,
    }
}

/// References captured from a profile cell for component replays.
const REPLAY_REFS: usize = 1 << 21;

/// Host nanoseconds per call of single simulator components.
#[derive(Debug, Default)]
pub struct Replay {
    pub tlb_ns: f64,
    pub cache_ns: f64,
    pub prefetch_ns: f64,
}

/// Replay the first [`REPLAY_REFS`] references of `work`'s core 0
/// through a first-level TLB (with second-level lookup and page walk on
/// a miss), the L1 cache (filling on a miss) and the L1 prefetcher.
pub fn component_replays(work: &Work) -> Replay {
    let spec = work.spec();
    let mut capture = CaptureSink::new(REPLAY_REFS);
    work.emit(0, &mut capture);
    let refs = capture.refs;
    let n = refs.len().max(1) as f64;

    let tlb_ns = {
        let _s = span("replay.tlb");
        let mut l1 = Tlb::new(spec.dtlb.clone());
        let mut l2 = spec.l2tlb.clone().map(Tlb::new);
        let walk = spec.walk;
        let t = Instant::now();
        for &(addr, _) in &refs {
            let vpn = l1.vpn_of(addr);
            if !l1.lookup(vpn) {
                let hit2 = l2.as_mut().is_some_and(|l2| l2.lookup(vpn));
                if !hit2 {
                    for level in 0..walk.levels {
                        black_box(walk.pte_address(vpn, level));
                    }
                    if let Some(l2) = l2.as_mut() {
                        l2.fill(vpn);
                    }
                }
                l1.fill(vpn);
            }
        }
        black_box(l1.stats());
        t.elapsed().as_secs_f64() / n * 1e9
    };
    let cache_ns = {
        let _s = span("replay.cache");
        let mut cache = Cache::new(spec.caches[0].clone());
        let t = Instant::now();
        for &(addr, write) in &refs {
            let line = cache.line_of(addr);
            if !cache.access(line, write).hit {
                black_box(cache.fill(line, write, false));
            }
        }
        black_box(cache.stats());
        t.elapsed().as_secs_f64() / n * 1e9
    };
    let prefetch_ns = {
        let _s = span("replay.prefetch");
        let mut pf = Prefetcher::new(spec.prefetchers[0]);
        let line_shift = spec.caches[0].line_bytes.trailing_zeros();
        let mut out = Vec::new();
        let t = Instant::now();
        for &(addr, _) in &refs {
            pf.observe(addr >> line_shift, &mut out);
            black_box(&out);
            out.clear();
        }
        t.elapsed().as_secs_f64() / n * 1e9
    };
    Replay {
        tlb_ns,
        cache_ns,
        prefetch_ns,
    }
}

/// Largest native triad the baseline allocates (three arrays).
const NATIVE_TRIAD_MAX_BYTES: u64 = 256 << 20;

/// Host seconds of the kernel run natively on the host, per cell
/// (`None` for a cell with no native baseline: one that does not fit
/// the modelled device, a gbmv cell, or a triad too large to allocate
/// here).
pub fn native(works: &[Work]) -> Vec<Option<f64>> {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
    let mut matrices: Vec<SquareMatrix> = Vec::new();
    works
        .iter()
        .map(|work| {
            if !work.fits() {
                return None;
            }
            let pool = Pool::new(work.threads().min(host));
            let _s = span("native.kernel");
            match work {
                Work::Cell(cell) => match &cell.kind {
                    CellKind::Transpose { variant, cfg } => {
                        let m = match matrices.iter_mut().find(|m| m.n() == cfg.n) {
                            Some(m) => m,
                            None => {
                                matrices.push(SquareMatrix::indexed(cfg.n));
                                matrices.last_mut().expect("just pushed")
                            }
                        };
                        Some(transpose_native(m, *variant, *cfg, &pool).as_secs_f64())
                    }
                    _ => None,
                },
                Work::Triad { triad, .. } => {
                    let n = triad.elements;
                    if 3 * n * 8 > NATIVE_TRIAD_MAX_BYTES {
                        return None;
                    }
                    let n = n as usize;
                    let b = vec![1.0f64; n];
                    let c = vec![2.0f64; n];
                    let mut a = vec![0.0f64; n];
                    let s = black_box(3.0);
                    let t = Instant::now();
                    for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                        *a = b + s * c;
                    }
                    black_box(&a);
                    Some(t.elapsed().as_secs_f64())
                }
            }
        })
        .collect()
}
