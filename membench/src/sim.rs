//! The simulation workloads (`fig2_mango`, `triad_tlboff`): the timed
//! end-to-end loop and the traced per-layer profile.

use crate::calib::{probe_s, to_nominal, NOMINAL_PROBE_S};
use crate::layers::{self, LayerCounts};
use crate::report::{median, peak_rss_mb, Metrics};
use crate::sinks::CountingSink;
use crate::spans::span;
use crate::workloads::{self, TriadCell, Work, Workload, TRIAD_CELLS};
use crate::Outcome;
use membound_core::runner::{CellOutcome, Engine, ExperimentMatrix, RunOptions, RunResults};
use membound_sim::{estimate_coverage, SimReport};
use membound_trace::{IrStats, RecordingSink};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Set-ups before each timed pass; `setup_s` is the median over all of
/// a run's set-ups, which therefore sample the whole run.
const SETUP_REPS_PER_PASS: usize = 3;
/// The engine's job count on `fig2_mango`.
const ENGINE_JOBS: u32 = 1;

/// What a simulation workload runs per timed pass.
pub enum SimWorkload {
    /// An experiment matrix through `Engine::run_with` (no result cache).
    Engine {
        matrix: ExperimentMatrix,
        digest: &'static str,
    },
    /// Cells through `Machine::simulate`, each with its pinned digest.
    Direct { cells: Vec<(Work, &'static str)> },
}

/// One timed pass.
pub struct Pass {
    pub wall_s: f64,
    /// Simulated L1 demand references over every cell the user receives.
    pub l1_refs: u64,
    pub attempted: u64,
    pub failed: u64,
    pub engine: Option<RunResults>,
    pub reports: Vec<SimReport>,
}

impl SimWorkload {
    /// Build the workload's inputs (the set-up step).
    pub fn build(w: Workload) -> SimWorkload {
        match w {
            Workload::Fig2Mango => SimWorkload::Engine {
                matrix: workloads::fig2_matrix(),
                digest: workloads::FIG2_MANGO_DIGEST,
            },
            Workload::TriadTlbOff => SimWorkload::Direct {
                cells: TRIAD_CELLS.iter().map(|c| (c.work(), c.digest)).collect(),
            },
            Workload::ServeMixed => unreachable!("serve_mixed is not a simulation workload"),
        }
    }

    /// Every cell of the workload, in matrix order.
    pub fn works(&self) -> Vec<Work> {
        match self {
            SimWorkload::Engine { matrix, .. } => {
                matrix.cells().iter().cloned().map(Work::Cell).collect()
            }
            SimWorkload::Direct { cells } => cells.iter().map(|(w, _)| w.clone()).collect(),
        }
    }

    /// Run one pass and check every output against its pin.
    pub fn pass(&self) -> Pass {
        match self {
            SimWorkload::Engine { matrix, digest } => {
                let start = Instant::now();
                let results = {
                    let _s = span("engine.run_with");
                    Engine::new(ENGINE_JOBS)
                        .run_with(matrix, &RunOptions::default())
                        .expect("a run without resume or streaming cannot fail")
                };
                let wall_s = start.elapsed().as_secs_f64();
                let attempted = results.cells.len() as u64;
                let mut failed = results
                    .cells
                    .iter()
                    .filter(|r| {
                        !matches!(r.outcome, CellOutcome::Report(_) | CellOutcome::DoesNotFit)
                    })
                    .count() as u64;
                let got = results.combined_digest();
                if got != *digest {
                    eprintln!(
                        "digest mismatch: {} gave {got}, pinned {digest}",
                        matrix.figure()
                    );
                    failed = attempted;
                }
                let reports: Vec<SimReport> = results
                    .cells
                    .iter()
                    .filter_map(|r| r.report().cloned())
                    .collect();
                Pass {
                    wall_s,
                    l1_refs: reports.iter().map(|r| r.cache_stats[0].accesses()).sum(),
                    attempted,
                    failed,
                    engine: Some(results),
                    reports,
                }
            }
            SimWorkload::Direct { cells } => {
                let start = Instant::now();
                let mut reports = Vec::new();
                for (work, _) in cells {
                    let _s = span("machine.simulate");
                    reports.push(work.simulate(&work.machine(work.spec().clone())));
                }
                let wall_s = start.elapsed().as_secs_f64();
                let mut failed = 0;
                for ((work, pin), report) in cells.iter().zip(&reports) {
                    let got = format!("{:016x}", report.stats_digest());
                    if got != *pin {
                        eprintln!("digest mismatch: {} gave {got}, pinned {pin}", work.label());
                        failed += 1;
                    }
                }
                Pass {
                    wall_s,
                    l1_refs: reports.iter().map(|r| r.cache_stats[0].accesses()).sum(),
                    attempted: cells.len() as u64,
                    failed,
                    engine: None,
                    reports,
                }
            }
        }
    }
}

/// One set-up: build the workload's cells, specs and engine, then run
/// the same kernels on the same devices at a small size, so one-time
/// costs (allocator growth, page faults, lazy initialisation) are paid
/// in set-up rather than in the timed pass. Returns its host seconds.
fn setup(w: Workload) -> (SimWorkload, f64) {
    let start = Instant::now();
    let sim = SimWorkload::build(w);
    warm_up(w);
    (sim, start.elapsed().as_secs_f64())
}

/// The workload's kernels on its devices at a small size.
fn warm_up(w: Workload) {
    let warm = match w {
        Workload::Fig2Mango => Engine::new(1).run(&workloads::fig2_matrix_at(&[256])),
        _ => {
            for cell in TRIAD_CELLS {
                let work = TriadCell {
                    elements: 1 << 16,
                    ..cell
                }
                .work();
                black_box(work.simulate(&work.machine(work.spec().clone())));
            }
            return;
        }
    };
    black_box(warm);
}

/// The end-to-end run of a simulation workload: timed passes for
/// `seconds` (a pass starts only while the previous one would still
/// finish inside the budget; at least one pass runs), each preceded by
/// [`SETUP_REPS_PER_PASS`] set-ups whose last one the pass uses. Host
/// probes before the set-ups and between them and the pass put every
/// time at the nominal host speed.
pub fn run(w: Workload, seconds: f64) -> Outcome {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut probes = Vec::new();
    let mut rss = Vec::new();
    loop {
        probes.push(probe_s());
        let mut sim = None;
        for _ in 0..SETUP_REPS_PER_PASS {
            let (built, secs) = setup(w);
            setups.push(secs);
            sim = Some(built);
        }
        probes.push(probe_s());
        passes.push(sim.expect("at least one set-up").pass());
        rss.push(peak_rss_mb());
        let last = passes.last().map_or(0.0, |p| p.wall_s);
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let speed = to_nominal(&probes);
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls) * speed;
    let refs = passes[0].l1_refs;
    let mut m = Metrics::default();
    m.put("wall_s", wall_s, "s");
    m.put("sim_mrefs_per_s", refs as f64 / wall_s / 1e6, "Mref/s");
    m.put("setup_s", median(&setups) * speed, "s");
    // One figure run's footprint: set-up plus the first pass. Later
    // passes only add allocator noise (which worker thread's arena freed
    // cells land in), shown per pass in the notes.
    m.put("peak_rss_mb", rss[0], "MiB");
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let mut notes = vec![
        format!("{} timed passes (raw s): {}", passes.len(), join(&walls, 4)),
        format!(
            "raw medians: pass {:.4} s, set-up {:.5} s; host probes (ms, nominal {:.1}): {}",
            median(&walls),
            median(&setups),
            NOMINAL_PROBE_S * 1e3,
            join(&probes.iter().map(|p| p * 1e3).collect::<Vec<_>>(), 3)
        ),
        format!("peak RSS after each pass (MiB): {}", join(&rss, 2)),
    ];
    if passes.iter().any(|p| p.l1_refs != refs) {
        notes.push("simulated reference count changed between passes".into());
        return Outcome::new(m, attempted, attempted, notes);
    }
    Outcome::new(m, attempted, failed, notes)
}

/// `xs` with `digits` decimals, space-separated.
pub fn join(xs: &[f64], digits: usize) -> String {
    xs.iter()
        .map(|x| format!("{x:.digits$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Per-cell layer timings of the traced run.
#[derive(Debug, Default)]
pub struct CellProfile {
    pub emit_s: f64,
    pub record_s: f64,
    pub simulate_s: f64,
    /// Simulation time of this cell's stream: its own run, or the run of
    /// the identical cell simulated before it.
    pub sim_cost_s: f64,
    pub refs: u64,
    pub strided_batches: u64,
    pub ir_ops: u64,
    pub eligible: u64,
    pub total: u64,
    /// Fingerprint of the emitted streams (all cores).
    pub fingerprint: u64,
}

/// Emit every core's references of `work` into a counting sink, then
/// record them into trace-IR programs and estimate their analytic
/// coverage.
pub fn emit_and_record(work: &Work) -> CellProfile {
    let mut p = CellProfile::default();
    if !work.fits() {
        return p;
    }
    let threads = work.threads();
    let mut counter = CountingSink::default();
    let t = Instant::now();
    {
        let _s = span("trace.trace_all");
        for tid in 0..threads {
            work.emit(tid, &mut counter);
        }
    }
    p.emit_s = t.elapsed().as_secs_f64();
    p.refs = counter.refs;
    p.strided_batches = counter.strided_batches;
    p.fingerprint = counter.fingerprint;

    let t = Instant::now();
    let mut programs = Vec::new();
    {
        let _s = span("ir.record");
        for tid in 0..threads {
            let mut rec = RecordingSink::new();
            work.emit(tid, &mut rec);
            programs.push(rec.finish());
        }
    }
    p.record_s = t.elapsed().as_secs_f64();
    for program in &programs {
        p.ir_ops += IrStats::of(program).total_nodes();
        let cov = estimate_coverage(work.spec(), program);
        p.eligible += cov.eligible_elems;
        p.total += cov.total_elems;
    }
    p
}

/// Profile every cell and simulate each distinct emitted stream once
/// through `Machine::simulate`, as the engine's in-run dedupe does.
/// Returns the profiles, the number of simulated cells whose digest
/// disagrees with the pass, and the simulated L1 references behind
/// Σ simulate time.
fn profile_cells(works: &[Work], pass: &Pass) -> (Vec<CellProfile>, u64, u64) {
    let mut out = Vec::new();
    let mut seen: BTreeMap<(String, u32, u64), f64> = BTreeMap::new();
    let mut mismatches = 0;
    let mut simulated_refs = 0;
    for (work, pinned) in works.iter().zip(pass_digests(pass)) {
        let _cell = span("profile.cell");
        let mut p = emit_and_record(work);
        if !work.fits() {
            out.push(p);
            continue;
        }
        let key = (work.spec().name.clone(), work.threads(), p.fingerprint);
        if let Some(&sim_s) = seen.get(&key) {
            p.sim_cost_s = sim_s;
        } else {
            let t = Instant::now();
            let report = {
                let _s = span("machine.simulate");
                work.simulate(&work.machine(work.spec().clone()))
            };
            p.simulate_s = t.elapsed().as_secs_f64();
            p.sim_cost_s = p.simulate_s;
            simulated_refs += report.cache_stats[0].accesses();
            if pinned != Some(report.stats_digest()) {
                eprintln!(
                    "profile: {} does not reproduce the pass digest",
                    work.label()
                );
                mismatches += 1;
            }
            seen.insert(key, p.simulate_s);
        }
        out.push(p);
    }
    (out, mismatches, simulated_refs)
}

/// Each cell's digest in `pass` (`None` for a cell that did not run).
fn pass_digests(pass: &Pass) -> Vec<Option<u64>> {
    match &pass.engine {
        Some(results) => results
            .cells
            .iter()
            .map(|r| r.report().map(SimReport::stats_digest))
            .collect(),
        None => pass
            .reports
            .iter()
            .map(|r| Some(r.stats_digest()))
            .collect(),
    }
}

/// Put the deterministic counters of `pass` and of its cells' emission;
/// returns the emitted reference count.
fn put_counts(m: &mut Metrics, pass: &Pass, cells: &[CellProfile]) -> u64 {
    let refs = cells.iter().map(|c| c.refs).sum();
    m.count("trace.refs", refs);
    m.count(
        "trace.strided_batches",
        cells.iter().map(|c| c.strided_batches).sum(),
    );
    m.count("ir.ops", cells.iter().map(|c| c.ir_ops).sum());
    LayerCounts::of(&pass.reports).put(m, refs);
    m.count(
        "runner.deduped_cells",
        pass.engine.as_ref().map_or(0, |r| r.deduped),
    );
    refs
}

/// The deterministic counters of one pass of `w` (the benchmark's tests
/// compare them across runs).
#[cfg(test)]
pub fn traced_counts(w: Workload) -> Metrics {
    let sim = SimWorkload::build(w);
    let pass = sim.pass();
    let cells: Vec<CellProfile> = sim.works().iter().map(emit_and_record).collect();
    let mut m = Metrics::default();
    put_counts(&mut m, &pass, &cells);
    m
}

/// The cells whose ablations and component replays the traced run
/// reports, each with its digest in `pass`: fig2's Naive 2048 column
/// walk (the ROADMAP's quoted split), and every triad cell.
fn profile_targets(w: Workload, works: &[Work], pass: &Pass) -> Vec<(Work, u64)> {
    let take = match w {
        Workload::Fig2Mango => 1,
        _ => works.len(),
    };
    works
        .iter()
        .zip(pass_digests(pass))
        .take(take)
        .filter_map(|(work, digest)| Some((work.clone(), digest?)))
        .collect()
}

/// The traced run of a simulation workload.
pub fn traced(w: Workload) -> Outcome {
    let sim = SimWorkload::build(w);
    let works = sim.works();

    crate::spans::set_enabled(false);
    let untraced = sim.pass();
    crate::spans::set_enabled(true);
    let root = span("bench.traced_run");
    let pass = sim.pass();
    let overhead_pct = (pass.wall_s - untraced.wall_s) / untraced.wall_s * 100.0;

    let (cells, mismatches, simulated_refs) = profile_cells(&works, &pass);
    let simulate_s: f64 = cells.iter().map(|c| c.simulate_s).sum();

    let targets = profile_targets(w, &works, &pass);
    let ablation = layers::ablations(&targets);
    let replay = layers::component_replays(&targets[0].0);
    let probe = probe_s();
    let native = layers::native(&works);
    drop(root);
    crate::spans::set_enabled(false);

    let mut m = Metrics::default();
    put_counts(&mut m, &pass, &cells);
    m.put("trace.emit_s", cells.iter().map(|c| c.emit_s).sum(), "s");
    m.put("ir.record_s", cells.iter().map(|c| c.record_s).sum(), "s");
    m.put("machine.simulate_s", simulate_s, "s");
    m.put(
        "machine.ns_per_ref",
        simulate_s / simulated_refs.max(1) as f64 * 1e9,
        "ns",
    );
    let host_workers = pass
        .reports
        .iter()
        .map(|r| r.host_workers)
        .max()
        .unwrap_or(1);
    m.put("machine.host_workers", f64::from(host_workers), "workers");
    m.put("machine.fanout_speedup", ablation.fanout_speedup, "x");

    m.put("tlb.share", ablation.tlb_share, "ratio");
    m.put("tlb.ns_per_lookup", replay.tlb_ns, "ns");
    m.put("prefetch.share", ablation.prefetch_share, "ratio");
    m.put("prefetch.ns_per_observe", replay.prefetch_ns, "ns");
    m.put("cache.ns_per_access", replay.cache_ns, "ns");
    let (eligible, total) = cells
        .iter()
        .fold((0, 0), |(e, t), c| (e + c.eligible, t + c.total));
    m.put(
        "analytic.coverage_pct",
        eligible as f64 / total.max(1) as f64 * 100.0,
        "%",
    );
    m.put("analytic.gain_s", ablation.analytic_gain_s, "s");

    match &pass.engine {
        Some(results) => {
            m.put("runner.overhead_s", pass.wall_s - simulate_s, "s");
            let cell_max = results
                .cells
                .iter()
                .map(|r| r.wall_seconds)
                .fold(0.0, f64::max);
            m.put("runner.cell_max_s", cell_max, "s");
        }
        None => {
            m.put("runner.overhead_s", 0.0, "s");
            m.put("runner.cell_max_s", 0.0, "s");
        }
    }
    layers::put_not_on_path(&mut m, &["resultcache", "telemetry", "serve", "submit"]);
    m.put("host.probe_ms", probe * 1e3, "ms");
    let (kernel_s, sim_s) = native
        .iter()
        .zip(&cells)
        .filter_map(|(n, c)| n.map(|n| (n, c.sim_cost_s)))
        .fold((0.0, 0.0), |(k, s), (n, c)| (k + n, s + c));
    m.put("native.kernel_s", kernel_s, "s");
    m.put(
        "sim.overhead_x",
        if kernel_s > 0.0 {
            sim_s / kernel_s
        } else {
            0.0
        },
        "x",
    );
    m.put("bench.trace_overhead_pct", overhead_pct, "%");

    let spans = crate::spans::take();
    layers::put_self_times(&mut m, &spans);
    let failed = pass.failed + untraced.failed + mismatches + ablation.replay_mismatches;
    let attempted = pass.attempted + untraced.attempted + works.len() as u64 + targets.len() as u64;
    m.put("fail_frac", failed as f64 / attempted as f64, "ratio");
    let notes = vec![
        format!(
            "untraced pass {:.3} s, traced pass {:.3} s",
            untraced.wall_s, pass.wall_s
        ),
        format!(
            "profile cells: {}",
            targets
                .iter()
                .map(|(w, _)| w.label())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ];
    let mut out = Outcome::new(m, attempted, failed, notes);
    out.spans = spans;
    out
}
