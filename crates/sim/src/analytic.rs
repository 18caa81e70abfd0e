//! Analytic steady-state execution of trace-IR programs.
//!
//! The per-element replay wall: simulating `n` references costs `O(n)`
//! pipeline steps even when the hierarchy's behaviour is perfectly
//! periodic. This module breaks it for provably periodic loop nests by
//! *fast-forwarding*: execute a warm-up prefix of the loop concretely,
//! prove that one more *chunk* (a set-index period of iterations) maps
//! the pipeline state onto itself under the address shift `Δ·P` (a state
//! isomorphism `Φ`), and then advance all counters by exact `u64`
//! multiplication over the remaining chunk count while shifting the
//! resident-line state by `Φ^k`.
//!
//! The proof obligations, checked per fast-forward attempt (DESIGN.md
//! §15 carries the full argument):
//!
//! * **Uniform shift** — every address-bearing op in the loop body moves
//!   by the same per-iteration delta `Δ`. Mixed steps are rejected.
//! * **Index periodicity** — the chunk length `P = M / gcd(M, |Δ|)`
//!   iterations, where `M` is the least common multiple of every cache
//!   level's `sets × line_bytes`, makes the chunk shift `Δ·P` a multiple
//!   of every level's indexing period, so `Φ` maps each set to itself.
//! * **Translation invariance** — a nonzero `Δ` is only accepted with
//!   TLB simulation disabled (`translate` provably never touches state);
//!   `Δ = 0` (identity `Φ`, `P = 1`) is accepted with the TLB on and
//!   compares TLB state exactly.
//! * **Address envelope** — the loop footprint, widened by the maximum
//!   prefetch reach, must sit inside `[2^22, 2^62)`: prefetch target
//!   clamping at address 0 and `line << shift` overflow behave
//!   identically across all chunks, and resident lines outside the
//!   envelope windows are compared (and left) as-is.
//! * **State isomorphism** — after the warm-up, the full per-core state
//!   (cache tags/flags/recency *order*, prefetcher tables, armed line,
//!   walk memo) must equal the pre-chunk snapshot under `Φ`; replacement
//!   RNG and frozen prefetcher streaks compare exactly, so random
//!   replacement (U74) and retraining streams fall back honestly.
//!
//! Anything unproven replays through the raw per-element paths — the
//! fallback is the reference semantics, so analytic execution is
//! digest-preserving by construction (`tests/prop_analytic.rs` and the
//! CI `analytic-gate` hold it to that).

use crate::cache::Cache;
use crate::hierarchy::{ArmedLine, CorePipeline, MAX_WALK_LEVELS};
use crate::machine::DeviceSpec;
use crate::prefetch::{Prefetcher, PrefetcherConfig};
use crate::stats::LevelStats;
use crate::tlb::Tlb;
use membound_trace::ir::DEFAULT_RECORDER_CAP;
use membound_trace::{strided_addr, MemAccess, Recorder, TraceOp};

/// Minimum whole chunks an op must span before fast-forward is attempted
/// (below this the warm-up would eat the gain).
const MIN_CHUNKS: u64 = 8;

/// Largest accepted chunk length in loop iterations (a period larger
/// than this replays concretely: the chunk itself would dominate).
const MAX_PERIOD_ITERS: u64 = 1 << 22;

/// Largest accepted indexing modulus `M` in bytes (guards the `lcm`
/// blow-up of pathological non-power-of-two partitioned geometries).
const MAX_MODULUS: u64 = 1 << 28;

/// Warm-up schedule, in chunks: snapshot after `w` chunks, verify the
/// isomorphism over chunk `w + 1`, growing exponentially while the
/// transient (cold fills, prefetcher training) still shows.
const WARMUPS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Fast-forward address envelope: loop windows must fit in
/// `[ENVELOPE_LO, ENVELOPE_HI)`.
const ENVELOPE_LO: u64 = 1 << 22;
const ENVELOPE_HI: u64 = 1 << 62;

/// Element count from which a failed fast-forward attempt counts toward
/// disabling the recorder (small ops never pay for the warm-up anyway).
const BIG_ELEMS: u64 = 4096;

/// Consecutive big-op failures (with no success ever) after which the
/// analytic layer turns itself off for the rest of the run, bounding
/// recording overhead on workloads that can never fast-forward.
const MAX_FAILS: u32 = 8;

/// Disable analytic execution for the run once this many expanded
/// elements have been replayed through failed attempts with no success
/// yet, regardless of individual attempt sizes — bounds the recording
/// overhead of workloads made of many small ineligible loops.
const MAX_FAIL_ELEMS: u64 = 1 << 18;

/// Per-core analytic executor: records the sink stream into trace IR,
/// executes the IR, and fast-forwards the provably periodic parts.
#[derive(Debug)]
pub(crate) struct Analytic {
    recorder: Recorder,
    out: Vec<TraceOp>,
    scratch: Vec<TraceOp>,
    /// False once disabled; the sink dispatch then bypasses recording.
    pub(crate) live: bool,
    fails: u32,
    /// Cumulative expanded elements of failed attempts while nothing has
    /// succeeded yet — catches workloads made of many small ineligible
    /// loops (each under [`BIG_ELEMS`]) that would otherwise pay
    /// recording overhead forever.
    failed_elems: u64,
    successes: u64,
    /// Elements advanced analytically (never executed).
    pub(crate) analytic_ops: u64,
    /// Elements replayed raw inside failed fast-forward attempts.
    pub(crate) replay_fallback_ops: u64,
}

impl Analytic {
    pub(crate) fn new() -> Self {
        Analytic {
            recorder: Recorder::new(DEFAULT_RECORDER_CAP),
            out: Vec::new(),
            scratch: Vec::new(),
            live: true,
            fails: 0,
            failed_elems: 0,
            successes: 0,
            analytic_ops: 0,
            replay_fallback_ops: 0,
        }
    }

    fn note_success(&mut self, elems: u64) {
        self.successes += 1;
        self.analytic_ops = self.analytic_ops.saturating_add(elems);
    }

    fn note_fail(&mut self, elems: u64) {
        self.replay_fallback_ops = self.replay_fallback_ops.saturating_add(elems);
        if self.successes == 0 {
            if elems >= BIG_ELEMS {
                self.fails += 1;
            }
            self.failed_elems = self.failed_elems.saturating_add(elems);
            if self.fails >= MAX_FAILS || self.failed_elems >= MAX_FAIL_ELEMS {
                self.live = false;
            }
        }
    }
}

/// Greatest common divisor (Euclid); `gcd(m, 0) = m`.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Rough expanded element count of an op (what a raw replay would cost),
/// used for coverage accounting and the disable heuristic.
fn op_elems(op: &TraceOp) -> u64 {
    match op {
        TraceOp::Access { .. } => 1,
        TraceOp::Compute { .. } | TraceOp::Barrier => 0,
        TraceOp::Range { len, .. } => len.div_ceil(64),
        TraceOp::Strided { count, .. } => *count,
        TraceOp::StridedRmw { count, .. } => count.saturating_mul(2),
        TraceOp::Repeat { body, count, .. } => body
            .iter()
            .fold(0u64, |a, op| a.saturating_add(op_elems(op)))
            .saturating_mul(*count),
        TraceOp::Seq(ops) => ops
            .iter()
            .fold(0u64, |a, op| a.saturating_add(op_elems(op))),
    }
}

/// The line-address isomorphism `Φ` (or `Φ^k`): lines whose byte address
/// falls inside one of the (sorted, disjoint) windows shift by `delta`
/// bytes; everything else is identity. `delta` is always a multiple of
/// the line size, so the byte/line conversion is exact.
#[derive(Debug, Clone)]
pub(crate) struct LineMap {
    windows: Vec<(u64, u64)>,
    delta: i64,
    shift: u32,
}

impl LineMap {
    fn line(&self, line: u64) -> u64 {
        if self.delta == 0 {
            return line;
        }
        let byte = u128::from(line) << self.shift;
        let Ok(byte) = u64::try_from(byte) else {
            return line; // shifted out of the address space: outside windows
        };
        if self.windows.iter().any(|&(lo, hi)| byte >= lo && byte < hi) {
            byte.wrapping_add_signed(self.delta) >> self.shift
        } else {
            line
        }
    }

    fn is_identity(&self) -> bool {
        self.delta == 0
    }
}

/// A proven-eligible fast-forward plan for one linear loop.
struct FfPlan {
    /// Loop iterations per chunk.
    p: u64,
    /// Whole chunks available.
    chunks: u64,
    /// Byte shift per chunk (`Δ·P`, a multiple of the modulus `M`).
    chunk_delta: i64,
    /// Chunk-to-chunk isomorphism.
    map: LineMap,
    /// Per-stream single-iteration byte footprints (iteration 0), used
    /// to compute the *forward* windows — the byte ranges the remaining
    /// iterations can still touch — when validating frozen levels.
    streams: Vec<(i128, i128)>,
    /// Per-iteration byte shift.
    step: i64,
    /// Total loop iterations (the planned op's, not just whole chunks).
    count: u64,
    /// Prefetch-reach margin in bytes (window widening).
    margin: u64,
}

impl FfPlan {
    /// Byte ranges iterations `t0..count` can still touch (probe, fill
    /// or prefetch), one per stream, margin-widened.
    fn forward_windows(&self, t0: u64) -> Vec<(i128, i128)> {
        let near = i128::from(self.step) * i128::from(t0);
        let far = i128::from(self.step) * i128::from(self.count.saturating_sub(1));
        self.streams
            .iter()
            .map(|&(lo, hi)| {
                (
                    lo + near.min(far) - i128::from(self.margin),
                    hi + near.max(far) + i128::from(self.margin),
                )
            })
            .collect()
    }
}

/// Device-level fast-forward gate parameters, shared between the live
/// planner and the static coverage estimator.
pub(crate) struct FfParams {
    modulus: Option<u64>,
    tlb: bool,
    margin: u64,
    line_bytes: u32,
}

fn prefetch_reach_lines(configs: impl Iterator<Item = PrefetcherConfig>) -> u64 {
    configs
        .map(|c| match c {
            PrefetcherConfig::None => 0,
            PrefetcherConfig::NextLine { degree } => u64::from(degree),
            PrefetcherConfig::Stride {
                max_stride_lines,
                degree,
                ..
            } => u64::from(max_stride_lines) * u64::from(degree),
        })
        .max()
        .unwrap_or(0)
}

fn modulus_of(periods: impl Iterator<Item = Option<u64>>) -> Option<u64> {
    let mut m = 1u64;
    for period in periods {
        let period = period?;
        m = m.checked_mul(period / gcd(m, period))?;
        if m > MAX_MODULUS {
            return None;
        }
    }
    Some(m)
}

impl FfParams {
    /// Gate parameters as seen by one core of `spec` (unpartitioned, i.e.
    /// the single-thread view — the estimator's resolution).
    pub(crate) fn of_spec(spec: &DeviceSpec) -> FfParams {
        let line_bytes = spec.caches[0].line_bytes;
        FfParams {
            modulus: modulus_of(
                spec.caches
                    .iter()
                    .map(|c| c.sets().checked_mul(u64::from(c.line_bytes))),
            ),
            tlb: spec.tlb_enabled,
            margin: (prefetch_reach_lines(spec.prefetchers.iter().copied()) + 1)
                * u64::from(line_bytes),
            line_bytes,
        }
    }

    /// Plan a linear loop: `count` iterations advancing by `stride` bytes
    /// each, with absolute byte footprint `fp` (over *all* iterations).
    /// Returns `(P, chunks, chunk_delta, windows)`.
    #[allow(clippy::type_complexity)]
    fn plan_linear(
        &self,
        stride: i64,
        count: u64,
        fp: Option<(i128, i128)>,
    ) -> Option<(u64, u64, i64, Vec<(u64, u64)>)> {
        let m = self.modulus?;
        let (p, chunk_delta) = if stride == 0 {
            (1, 0)
        } else {
            if self.tlb {
                return None; // nonzero shift requires frozen translation
            }
            let p = m / gcd(m, stride.unsigned_abs());
            if p > MAX_PERIOD_ITERS {
                return None;
            }
            (p, i64::try_from(i128::from(stride) * i128::from(p)).ok()?)
        };
        let chunks = count / p;
        if chunks < MIN_CHUNKS {
            return None;
        }
        let windows = if chunk_delta == 0 {
            Vec::new()
        } else {
            let (lo, hi) = fp?;
            let lo = lo - i128::from(self.margin);
            let hi = hi + i128::from(self.margin);
            if lo < i128::from(ENVELOPE_LO) || hi > i128::from(ENVELOPE_HI) {
                return None;
            }
            vec![(lo as u64, hi as u64)]
        };
        Some((p, chunks, chunk_delta, windows))
    }

    fn line_shift(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }
}

/// Snapshot of everything [`CorePipeline`] carries between sink calls:
/// the comparison baseline for the isomorphism check, plus the counter
/// vector the per-chunk deltas are measured against.
struct PipeSnapshot {
    levels: Vec<Cache>,
    dtlb: Tlb,
    l2tlb: Option<Tlb>,
    prefetchers: Vec<Option<Prefetcher>>,
    armed: Option<ArmedLine>,
    walk_memo: [Option<(u64, usize, u32)>; MAX_WALK_LEVELS],
    walk_upper_node: Option<u64>,
    counters: Vec<u64>,
}

fn push_level(v: &mut Vec<u64>, s: &LevelStats) {
    v.extend([
        s.hits,
        s.misses,
        s.evictions,
        s.writebacks,
        s.prefetches_issued,
        s.prefetch_hits,
        s.fill_bytes,
        s.writeback_bytes,
    ]);
}

fn read_level(it: &mut impl Iterator<Item = u64>) -> LevelStats {
    LevelStats {
        hits: it.next().unwrap(),
        misses: it.next().unwrap(),
        evictions: it.next().unwrap(),
        writebacks: it.next().unwrap(),
        prefetches_issued: it.next().unwrap(),
        prefetch_hits: it.next().unwrap(),
        fill_bytes: it.next().unwrap(),
        writeback_bytes: it.next().unwrap(),
    }
}

impl CorePipeline {
    // ---- sink-side dispatch --------------------------------------------

    /// Whether sink calls should be routed through the recorder.
    pub(crate) fn analytic_live(&self) -> bool {
        self.analytic.as_ref().is_some_and(|a| a.live)
    }

    /// Record one op; executes whatever structured program the recorder
    /// emits (its buffer keeps only a bounded folding frontier).
    pub(crate) fn analytic_push(&mut self, op: TraceOp) {
        let Some(mut an) = self.analytic.take() else {
            return;
        };
        an.recorder.push(op, &mut an.out);
        self.drain_analytic(&mut an);
        self.analytic = Some(an);
    }

    /// Flush and execute everything still buffered (barrier / end of run).
    pub(crate) fn analytic_flush(&mut self) {
        let Some(mut an) = self.analytic.take() else {
            return;
        };
        an.recorder.flush(&mut an.out);
        self.drain_analytic(&mut an);
        self.analytic = Some(an);
    }

    fn drain_analytic(&mut self, an: &mut Analytic) {
        let mut ops = std::mem::take(&mut an.scratch);
        loop {
            std::mem::swap(&mut ops, &mut an.out);
            if ops.is_empty() {
                // A mid-drain disable leaves ops parked in the recorder;
                // spill and execute them too, then stay raw.
                if an.live || an.recorder.is_empty() {
                    break;
                }
                an.recorder.flush(&mut an.out);
                continue;
            }
            for op in &ops {
                self.execute_op(op, 0, an);
            }
            ops.clear();
        }
        an.scratch = ops;
    }

    // ---- IR execution --------------------------------------------------

    /// Execute one op shifted by `delta` bytes, attempting fast-forward
    /// on the loop-shaped nodes.
    fn execute_op(&mut self, op: &TraceOp, delta: i64, an: &mut Analytic) {
        match op {
            TraceOp::Access { addr, size, write } => {
                let a = addr.wrapping_add_signed(delta);
                self.raw_access(if *write {
                    MemAccess::store(a, *size)
                } else {
                    MemAccess::load(a, *size)
                });
            }
            TraceOp::Compute { cost, iters } => self.raw_compute(*cost, *iters),
            TraceOp::Barrier => self.raw_barrier(),
            TraceOp::Range { addr, len, write } => {
                self.exec_range(addr.wrapping_add_signed(delta), *len, *write, an);
            }
            TraceOp::Strided {
                base,
                stride,
                count,
                size,
                write,
            } => self.exec_strided(
                base.wrapping_add_signed(delta),
                *stride,
                *count,
                *size,
                *write,
                false,
                an,
            ),
            TraceOp::StridedRmw {
                base,
                stride,
                count,
                size,
            } => self.exec_strided(
                base.wrapping_add_signed(delta),
                *stride,
                *count,
                *size,
                true,
                true,
                an,
            ),
            TraceOp::Repeat { body, steps, count } => {
                self.exec_repeat(body, steps, *count, delta, an)
            }
            TraceOp::Seq(ops) => {
                for op in ops {
                    self.execute_op(op, delta, an);
                }
            }
        }
    }

    /// Execute one op raw, never attempting fast-forward — the chunk body
    /// of a fast-forward attempt (warm-up chunks must be plain concrete
    /// execution for the isomorphism argument to be about the raw
    /// semantics).
    fn execute_op_raw(&mut self, op: &TraceOp, delta: i64) {
        match op {
            TraceOp::Access { addr, size, write } => {
                let a = addr.wrapping_add_signed(delta);
                self.raw_access(if *write {
                    MemAccess::store(a, *size)
                } else {
                    MemAccess::load(a, *size)
                });
            }
            TraceOp::Compute { cost, iters } => self.raw_compute(*cost, *iters),
            TraceOp::Barrier => self.raw_barrier(),
            TraceOp::Range { addr, len, write } => {
                self.raw_access_range(addr.wrapping_add_signed(delta), *len, *write);
            }
            TraceOp::Strided {
                base,
                stride,
                count,
                size,
                write,
            } => self.raw_access_strided(
                base.wrapping_add_signed(delta),
                *stride,
                *count,
                *size,
                *write,
            ),
            TraceOp::StridedRmw {
                base,
                stride,
                count,
                size,
            } => {
                self.raw_access_strided_rmw(base.wrapping_add_signed(delta), *stride, *count, *size)
            }
            TraceOp::Repeat { body, steps, count } => {
                for i in 0..*count {
                    for (op, step) in body.iter().zip(steps) {
                        self.execute_op_raw(op, delta.wrapping_add(step.wrapping_mul(i as i64)));
                    }
                }
            }
            TraceOp::Seq(ops) => {
                for op in ops {
                    self.execute_op_raw(op, delta);
                }
            }
        }
    }

    fn ff_params(&self) -> FfParams {
        FfParams {
            modulus: modulus_of(
                self.levels
                    .iter()
                    .map(|c| c.config().sets().checked_mul(u64::from(self.line_bytes))),
            ),
            tlb: self.tlb_enabled,
            margin: (prefetch_reach_lines(
                self.prefetchers.iter().flatten().map(Prefetcher::config),
            ) + 1)
                * u64::from(self.line_bytes),
            line_bytes: self.line_bytes,
        }
    }

    fn exec_repeat(
        &mut self,
        body: &[TraceOp],
        steps: &[i64],
        count: u64,
        delta: i64,
        an: &mut Analytic,
    ) {
        let iter_elems = body
            .iter()
            .fold(0u64, |a, op| a.saturating_add(op_elems(op)));
        if let Some(plan) = self.plan_repeat(body, steps, count, delta) {
            let p = plan.p;
            let skipped = self.ff_drive(&plan, |pipe, c| {
                for i in (c * p)..((c + 1) * p) {
                    for (op, step) in body.iter().zip(steps) {
                        pipe.execute_op_raw(op, delta.wrapping_add(step.wrapping_mul(i as i64)));
                    }
                }
            });
            for i in (plan.chunks * p)..count {
                for (op, step) in body.iter().zip(steps) {
                    self.execute_op_raw(op, delta.wrapping_add(step.wrapping_mul(i as i64)));
                }
            }
            if skipped > 0 {
                an.note_success(skipped.saturating_mul(p).saturating_mul(iter_elems));
            } else {
                an.note_fail(iter_elems.saturating_mul(count));
            }
            return;
        }
        // Not plannable as a whole: replay per iteration, giving nested
        // loop-shaped ops their own fast-forward chances (they do their
        // own success/fail accounting).
        for i in 0..count {
            for (op, step) in body.iter().zip(steps) {
                self.execute_op(op, delta.wrapping_add(step.wrapping_mul(i as i64)), an);
            }
        }
    }

    fn plan_repeat(
        &self,
        body: &[TraceOp],
        steps: &[i64],
        count: u64,
        delta: i64,
    ) -> Option<FfPlan> {
        debug_assert!(self.fastpath);
        if body.is_empty() || body.iter().any(|op| matches!(op, TraceOp::Barrier)) {
            return None;
        }
        // Uniform per-iteration shift across address-bearing body ops.
        let mut d: Option<i64> = None;
        for (op, step) in body.iter().zip(steps) {
            if matches!(op, TraceOp::Compute { .. }) {
                continue;
            }
            match d {
                None => d = Some(*step),
                Some(prev) if prev != *step => return None,
                Some(_) => {}
            }
        }
        let d = d?;
        if self.tlb_enabled && d != 0 {
            return None; // `plan_linear` refuses a shift under live translation
        }
        // Absolute footprint over all iterations, in the shifted frame.
        let mut fp: Option<(i128, i128)> = None;
        for (op, step) in body.iter().zip(steps) {
            if let Some((lo, hi)) = op.footprint() {
                let span = i128::from(*step) * i128::from(count - 1);
                let lo = lo + span.min(0) + i128::from(delta);
                let hi = hi + span.max(0) + i128::from(delta);
                fp = Some(match fp {
                    Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
                    None => (lo, hi),
                });
            }
        }
        fp?;
        let params = self.ff_params();
        let (p, chunks, chunk_delta, windows) = params.plan_linear(d, count, fp)?;
        let streams = body
            .iter()
            .filter_map(TraceOp::footprint)
            .map(|(lo, hi)| (lo + i128::from(delta), hi + i128::from(delta)))
            .collect();
        Some(FfPlan {
            p,
            chunks,
            chunk_delta,
            map: LineMap {
                windows,
                delta: chunk_delta,
                shift: params.line_shift(),
            },
            streams,
            step: d,
            count,
            margin: params.margin,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_strided(
        &mut self,
        base: u64,
        stride: i64,
        count: u64,
        size: u32,
        write: bool,
        rmw: bool,
        an: &mut Analytic,
    ) {
        let elems = if rmw { count.saturating_mul(2) } else { count };
        if let Some(plan) = self.plan_strided(base, stride, count, size) {
            let p = plan.p;
            let skipped = self.ff_drive(&plan, |pipe, c| {
                let b = strided_addr(base, stride, c * p);
                if rmw {
                    pipe.raw_access_strided_rmw(b, stride, p, size);
                } else {
                    pipe.raw_access_strided(b, stride, p, size, write);
                }
            });
            let done = plan.chunks * p;
            if count > done {
                let b = strided_addr(base, stride, done);
                if rmw {
                    self.raw_access_strided_rmw(b, stride, count - done, size);
                } else {
                    self.raw_access_strided(b, stride, count - done, size, write);
                }
            }
            if skipped > 0 {
                an.note_success(
                    skipped
                        .saturating_mul(p)
                        .saturating_mul(if rmw { 2 } else { 1 }),
                );
            } else {
                an.note_fail(elems);
            }
            return;
        }
        if rmw {
            self.raw_access_strided_rmw(base, stride, count, size);
        } else {
            self.raw_access_strided(base, stride, count, size, write);
        }
        an.note_fail(elems);
    }

    fn plan_strided(&self, base: u64, stride: i64, count: u64, size: u32) -> Option<FfPlan> {
        debug_assert!(self.fastpath);
        if count == 0 || (self.tlb_enabled && stride != 0) {
            return None; // `plan_linear` refuses a shift under live translation
        }
        let span = i128::from(stride) * i128::from(count - 1);
        let fp = (
            i128::from(base) + span.min(0),
            i128::from(base) + span.max(0) + i128::from(size.max(1)),
        );
        let params = self.ff_params();
        let (p, chunks, chunk_delta, windows) = params.plan_linear(stride, count, Some(fp))?;
        Some(FfPlan {
            p,
            chunks,
            chunk_delta,
            map: LineMap {
                windows,
                delta: chunk_delta,
                shift: params.line_shift(),
            },
            streams: vec![(i128::from(base), i128::from(base) + i128::from(size.max(1)))],
            step: stride,
            count,
            margin: params.margin,
        })
    }

    fn exec_range(&mut self, addr: u64, len: u64, write: bool, an: &mut Analytic) {
        let shift = self.line_bytes.trailing_zeros();
        if let Some(plan) = self.plan_range(addr, len) {
            let p = plan.p;
            let first = addr >> shift;
            let end = addr.saturating_add(len);
            let skipped = self.ff_drive(&plan, |pipe, c| {
                let line_lo = first + c * p;
                let start = if c == 0 { addr } else { line_lo << shift };
                let stop = ((line_lo + p) << shift).min(end);
                pipe.raw_access_range(start, stop - start, write);
            });
            let done_line = first + plan.chunks * p;
            if (done_line << shift) < end {
                let start = done_line << shift;
                self.raw_access_range(start, end - start, write);
            }
            if skipped > 0 {
                an.note_success(skipped.saturating_mul(p));
            } else {
                an.note_fail(len.div_ceil(u64::from(self.line_bytes)));
            }
            return;
        }
        self.raw_access_range(addr, len, write);
        an.note_fail(len.div_ceil(u64::from(self.line_bytes)));
    }

    fn plan_range(&self, addr: u64, len: u64) -> Option<FfPlan> {
        debug_assert!(self.fastpath);
        // A range shifts by the whole fold modulus per chunk, which live
        // translation refuses.
        if len == 0 || self.tlb_enabled {
            return None;
        }
        let params = self.ff_params();
        let m = params.modulus?;
        let line = u64::from(self.line_bytes);
        let p = m / line; // lines per chunk; chunk shift = M exactly
        let shift = params.line_shift();
        let end = addr.saturating_add(len);
        let lines = ((end - 1) >> shift) - (addr >> shift) + 1;
        let chunks = lines / p;
        if chunks < MIN_CHUNKS {
            return None;
        }
        let chunk_delta = i64::try_from(m).ok()?;
        let lo = i128::from(addr) - i128::from(params.margin);
        let hi = i128::from(end) + i128::from(params.margin);
        if lo < i128::from(ENVELOPE_LO) || hi > i128::from(ENVELOPE_HI) {
            return None;
        }
        Some(FfPlan {
            p,
            chunks,
            chunk_delta,
            map: LineMap {
                windows: vec![(lo as u64, hi as u64)],
                delta: chunk_delta,
                shift,
            },
            // One "iteration" of a range sweep is one line.
            streams: vec![(i128::from(addr), i128::from(addr) + i128::from(line))],
            step: i64::try_from(line).ok()?,
            count: lines,
            margin: params.margin,
        })
    }

    // ---- fast-forward driver -------------------------------------------

    /// Run the plan's chunks, fast-forwarding once a chunk provably maps
    /// the state onto itself. Returns the number of chunks skipped
    /// analytically (0 when every chunk was executed concretely). All
    /// `plan.chunks` chunks are accounted for either way; the caller only
    /// runs the sub-chunk remainder.
    fn ff_drive<F: FnMut(&mut CorePipeline, u64)>(
        &mut self,
        plan: &FfPlan,
        mut run_chunk: F,
    ) -> u64 {
        let total = plan.chunks;
        let mut next = 0u64;
        for &w in &WARMUPS {
            if w + 1 > total || w > total / 4 {
                break;
            }
            while next < w {
                run_chunk(self, next);
                next += 1;
            }
            let base = self.ff_snapshot();
            run_chunk(self, next);
            next += 1;
            let Some(frozen) = self.ff_state_matches(&base, &plan.map) else {
                continue;
            };
            let k = total - next;
            if k == 0 {
                return 0;
            }
            // Frozen levels are only extrapolation-safe when none of
            // their resident lines can be touched (probed, prefetched
            // over, or evicted) by the remaining iterations.
            let forward = plan.forward_windows(next * plan.p);
            let shift = plan.map.shift;
            let lb = i128::from(1u64 << shift);
            let clear = frozen.iter().zip(&self.levels).all(|(&fz, level)| {
                !fz || level.ff_all_lines(|line| {
                    let b = i128::from(line) << shift;
                    forward.iter().all(|&(lo, hi)| b + lb <= lo || b >= hi)
                })
            });
            if !clear {
                continue;
            }
            let total_shift = i128::from(plan.chunk_delta) * i128::from(k);
            let Ok(total_shift) = i64::try_from(total_shift) else {
                break;
            };
            let total_map = LineMap {
                windows: plan.map.windows.clone(),
                delta: total_shift,
                shift: plan.map.shift,
            };
            if self.ff_apply(&base, k, &total_map, &frozen) {
                return k;
            }
            break;
        }
        while next < total {
            run_chunk(self, next);
            next += 1;
        }
        0
    }

    /// The counter vector scaled by fast-forward, in one fixed order
    /// (mirrored exactly by [`CorePipeline::ff_set_counters`]).
    fn ff_counters(&self) -> Vec<u64> {
        let mut v =
            Vec::with_capacity(8 + self.cur.supply_bytes.len() + 8 * (self.levels.len() + 2));
        v.push(self.cur.cycles.issue_subcycles);
        v.push(self.cur.cycles.stall_subcycles);
        v.extend_from_slice(&self.cur.supply_bytes);
        v.extend([
            self.cur.dram.bytes_read,
            self.cur.dram.bytes_written,
            self.cur.dram.reads,
            self.cur.dram.writes,
        ]);
        for c in &self.levels {
            push_level(&mut v, &c.stats());
        }
        push_level(&mut v, &self.dtlb.stats());
        if let Some(l2) = &self.l2tlb {
            push_level(&mut v, &l2.stats());
        }
        v.push(self.strided_batches);
        v
    }

    fn ff_set_counters(&mut self, vals: &[u64]) {
        let mut it = vals.iter().copied();
        self.cur.cycles.issue_subcycles = it.next().unwrap();
        self.cur.cycles.stall_subcycles = it.next().unwrap();
        for b in &mut self.cur.supply_bytes {
            *b = it.next().unwrap();
        }
        self.cur.dram.bytes_read = it.next().unwrap();
        self.cur.dram.bytes_written = it.next().unwrap();
        self.cur.dram.reads = it.next().unwrap();
        self.cur.dram.writes = it.next().unwrap();
        for c in &mut self.levels {
            *c.stats_mut() = read_level(&mut it);
        }
        *self.dtlb.stats_mut() = read_level(&mut it);
        if let Some(l2) = &mut self.l2tlb {
            *l2.stats_mut() = read_level(&mut it);
        }
        self.strided_batches = it.next().unwrap();
        debug_assert!(it.next().is_none());
    }

    // `pred_buf` is pure scratch (cleared on entry to `run_prefetcher`),
    // so snapshots neither capture nor compare it.
    fn ff_snapshot(&self) -> PipeSnapshot {
        PipeSnapshot {
            levels: self.levels.clone(),
            dtlb: self.dtlb.clone(),
            l2tlb: self.l2tlb.clone(),
            prefetchers: self.prefetchers.clone(),
            armed: self.armed,
            walk_memo: self.walk_memo,
            walk_upper_node: self.walk_upper_node,
            counters: self.ff_counters(),
        }
    }

    /// Start of level `k`'s stats block in the [`CorePipeline::ff_counters`]
    /// vector.
    fn ff_level_stats_offset(&self, k: usize) -> usize {
        2 + (self.levels.len() + 1) + 4 + 8 * k
    }

    /// Does the current state equal `base` under the isomorphism `map`?
    ///
    /// Returns `None` on mismatch; on match, one flag per cache level:
    /// `true` marks a **frozen** level — one that did not move under
    /// `map` but is bitwise-identical to `base` with a zero stats delta
    /// across the chunk, i.e. the chunk provably never touched it (every
    /// probe, fill or writeback bumps a stat). A frozen level holds
    /// stale lines at absolute addresses (e.g. an inner level's cold
    /// fills from before the outer prefetcher took over); it stays
    /// untouched under extrapolation *provided* none of its lines can
    /// collide with the op's remaining footprint — the caller checks
    /// that against [`FfPlan::forward_windows`] before applying.
    fn ff_state_matches(&self, base: &PipeSnapshot, map: &LineMap) -> Option<Vec<bool>> {
        let cur_counters = self.ff_counters();
        let mut frozen = vec![false; self.levels.len()];
        for (k, (cur, b)) in self.levels.iter().zip(&base.levels).enumerate() {
            if cur.ff_shift_eq(b, |l| map.line(l)) {
                continue;
            }
            let off = self.ff_level_stats_offset(k);
            let untouched = cur_counters[off..off + 8] == base.counters[off..off + 8];
            if untouched && cur.ff_shift_eq(b, |l| l) {
                frozen[k] = true;
            } else {
                return None;
            }
        }
        if !self.dtlb.ff_eq(&base.dtlb) {
            return None;
        }
        match (&self.l2tlb, &base.l2tlb) {
            (Some(a), Some(b)) if a.ff_eq(b) => {}
            (None, None) => {}
            _ => return None,
        }
        for (cur, b) in self.prefetchers.iter().zip(&base.prefetchers) {
            match (cur, b) {
                // Frozen first: an equal clock proves zero observations
                // across the chunk (every mutator bumps it), so the table
                // is inert — and since observation occurrence at this
                // level is itself determined by the compared upper state,
                // no extrapolated chunk consults it either. `ff_apply`
                // re-detects this and leaves the table at absolute values.
                (Some(a), Some(b)) if a.ff_frozen_eq(b) => {}
                (Some(a), Some(b)) if a.ff_shift_eq(b, |l| map.line(l)) => {}
                (None, None) => {}
                _ => return None,
            }
        }
        // The armed way is NOT compared: it is a representation detail in
        // the same sense as a set's way permutation. The L1 set compare
        // above already proved the armed line exists in both states at
        // the same recency rank (lines are unique within a set), and
        // `self.armed.way` stays self-consistent with the *current*
        // arrays, whose way positions `ff_apply` preserves.
        let armed_ok = match (self.armed, base.armed) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.line == map.line(b.line) && a.set == b.set && a.dirty == b.dirty
            }
            _ => false,
        };
        if armed_ok
            && self.walk_memo == base.walk_memo
            && self.walk_upper_node == base.walk_upper_node
        {
            Some(frozen)
        } else {
            None
        }
    }

    /// Advance counters by `k` times the verified chunk's delta and shift
    /// the resident-line state by the accumulated isomorphism. Counters
    /// are scaled fully (checked) before anything mutates; `false` means
    /// an overflow aborted the fast-forward with the state untouched.
    fn ff_apply(
        &mut self,
        base: &PipeSnapshot,
        k: u64,
        total_map: &LineMap,
        frozen: &[bool],
    ) -> bool {
        let cur = self.ff_counters();
        let mut scaled = Vec::with_capacity(cur.len());
        for (&c, &b) in cur.iter().zip(&base.counters) {
            debug_assert!(c >= b, "per-chunk counters are monotone");
            let Some(v) = (c - b).checked_mul(k).and_then(|d| c.checked_add(d)) else {
                return false;
            };
            scaled.push(v);
        }
        self.ff_set_counters(&scaled);
        if !total_map.is_identity() {
            for (c, &fz) in self.levels.iter_mut().zip(frozen) {
                if !fz {
                    c.ff_shift_lines(|l| total_map.line(l));
                }
            }
            for (p, b) in self.prefetchers.iter_mut().zip(&base.prefetchers) {
                if let (Some(p), Some(b)) = (p, b) {
                    if !p.ff_frozen_eq(b) {
                        p.ff_shift_lines(b, |l| total_map.line(l));
                    }
                }
            }
            if let Some(a) = &mut self.armed {
                a.line = total_map.line(a.line);
            }
        }
        true
    }
}

/// Static fast-forward coverage estimate of a trace program on a device
/// (the `membound-cli trace-ir` metric): how many expanded elements sit
/// in loops that pass the *shape* gates (uniform shift, period, chunk
/// count, envelope). An upper bound — runtime warm-up can still fail
/// (e.g. random replacement or retraining streams) and fall back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Expanded elements inside shape-eligible loops.
    pub eligible_elems: u64,
    /// Total expanded elements of the program.
    pub total_elems: u64,
}

impl Coverage {
    /// Eligible fraction in percent (100.0 for an empty program).
    #[must_use]
    pub fn percent(&self) -> f64 {
        if self.total_elems == 0 {
            100.0
        } else {
            self.eligible_elems as f64 / self.total_elems as f64 * 100.0
        }
    }
}

/// Estimate analytic coverage of `program` on `spec` (single-core view).
#[must_use]
pub fn estimate_coverage(spec: &DeviceSpec, program: &[TraceOp]) -> Coverage {
    let params = FfParams::of_spec(spec);
    let mut cov = Coverage::default();
    for op in program {
        let (eligible, total) = coverage_op(&params, op);
        cov.eligible_elems = cov.eligible_elems.saturating_add(eligible);
        cov.total_elems = cov.total_elems.saturating_add(total);
    }
    cov
}

fn coverage_op(params: &FfParams, op: &TraceOp) -> (u64, u64) {
    let total = op_elems(op);
    match op {
        TraceOp::Strided { stride, count, .. } | TraceOp::StridedRmw { stride, count, .. } => {
            let per = total.checked_div(*count).unwrap_or(0);
            match params.plan_linear(*stride, *count, op.footprint()) {
                Some((p, chunks, _, _)) => (chunks * p * per, total),
                None => (0, total),
            }
        }
        TraceOp::Range { len, .. } => {
            let m = params.modulus.unwrap_or(0);
            let line = u64::from(params.line_bytes);
            let eligible = if m > 0 && !params.tlb && *len / m >= MIN_CHUNKS {
                (*len / m) * (m / line)
            } else {
                0
            };
            (eligible, total)
        }
        TraceOp::Repeat { body, steps, count } => {
            let mut d: Option<i64> = None;
            let mut uniform = true;
            for (op, step) in body.iter().zip(steps) {
                if matches!(op, TraceOp::Compute { .. }) {
                    continue;
                }
                match d {
                    None => d = Some(*step),
                    Some(prev) if prev != *step => uniform = false,
                    Some(_) => {}
                }
            }
            if uniform {
                if let Some(d) = d {
                    if let Some((p, chunks, _, _)) = params.plan_linear(d, *count, op.footprint()) {
                        let per_iter = body
                            .iter()
                            .fold(0u64, |a, op| a.saturating_add(op_elems(op)));
                        return (chunks.saturating_mul(p).saturating_mul(per_iter), total);
                    }
                }
            }
            // Whole loop not plannable: nested loops still get chances.
            let (e, t) = body.iter().fold((0u64, 0u64), |(e, t), op| {
                let (ce, ct) = coverage_op(params, op);
                (e.saturating_add(ce), t.saturating_add(ct))
            });
            (
                e.saturating_mul(*count),
                t.saturating_mul(*count).max(total),
            )
        }
        TraceOp::Seq(ops) => ops.iter().fold((0u64, 0u64), |(e, t), op| {
            let (ce, ct) = coverage_op(params, op);
            (e.saturating_add(ce), t.saturating_add(ct))
        }),
        _ => (0, total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::core::CoreConfig;
    use crate::devices::Device;
    use crate::dram::DramConfig;
    use crate::machine::Machine;
    use crate::replacement::ReplacementPolicy;
    use crate::tlb::{PageWalk, TlbConfig};
    use membound_trace::TraceSink;

    /// Two-level test device: L1 4KB/4w/64 (16 sets), L2 64KB/8w/64
    /// (128 sets) — modulus `M = lcm(1024, 8192) = 8192` bytes.
    fn tiny_spec() -> DeviceSpec {
        DeviceSpec {
            name: "tiny".into(),
            isa: "test".into(),
            cores: 1,
            core: CoreConfig::new("test", 1.0, 1, 0, 1.0),
            caches: vec![
                CacheConfig::new("L1", 4096, 4, 64)
                    .policy(ReplacementPolicy::Lru)
                    .latency(4)
                    .bytes_per_cycle(8.0),
                CacheConfig::new("L2", 65536, 8, 64)
                    .latency(12)
                    .bytes_per_cycle(8.0),
            ],
            prefetchers: vec![PrefetcherConfig::c906(), PrefetcherConfig::None],
            dtlb: TlbConfig::fully_associative("DTLB", 16),
            l2tlb: None,
            walk: PageWalk::sv39(),
            dram: DramConfig::new(100, 1.0, 1),
            dram_capacity_bytes: 1 << 30,
            tlb_enabled: false,
        }
    }

    #[test]
    fn gcd_and_period_math() {
        assert_eq!(gcd(8192, 64), 64);
        assert_eq!(gcd(12, 0), 12);
        assert_eq!(gcd(0, 12), 12);
        let m = modulus_of([Some(1024u64), Some(8192)].into_iter()).unwrap();
        assert_eq!(m, 8192);
        assert_eq!(modulus_of([None].into_iter()), None);
        // Non-power-of-two periods compose by lcm.
        assert_eq!(modulus_of([Some(6u64), Some(10)].into_iter()), Some(30));
    }

    #[test]
    fn linemap_shifts_only_inside_windows() {
        let map = LineMap {
            windows: vec![(1 << 22, (1 << 22) + 4096)],
            delta: 128,
            shift: 6,
        };
        let inside = (1u64 << 22) >> 6;
        assert_eq!(map.line(inside), inside + 2);
        let outside = ((1u64 << 22) + 8192) >> 6;
        assert_eq!(map.line(outside), outside);
        // Lines whose byte address overflows u64 are (vacuously) outside.
        assert_eq!(map.line(u64::MAX >> 2), u64::MAX >> 2);
    }

    #[test]
    fn plan_gates_tlb_and_chunk_count() {
        let spec = tiny_spec();
        let p = FfParams::of_spec(&spec);
        // stride 64 over 4096 elements: P = 8192/64 = 128, 32 chunks.
        let fp = Some((i128::from(1u64 << 30), i128::from((1u64 << 30) + 4096 * 64)));
        let (period, chunks, delta, _) = p.plan_linear(64, 4096, fp).unwrap();
        assert_eq!(period, 128);
        assert_eq!(chunks, 32);
        assert_eq!(delta, 8192);
        // Too few chunks.
        assert!(p.plan_linear(64, 512, fp).is_none());
        // Zero stride: identity plan, allowed even with the TLB on.
        let with_tlb = FfParams {
            tlb: true,
            ..FfParams::of_spec(&spec)
        };
        assert!(with_tlb.plan_linear(0, 64, None).is_some());
        assert!(with_tlb.plan_linear(64, 4096, fp).is_none());
    }

    #[test]
    fn envelope_rejects_address_space_extremes() {
        let spec = tiny_spec();
        let p = FfParams::of_spec(&spec);
        // Footprint hugging u64::MAX (the PR-4 `emit_range` clamp
        // pattern): must fall outside the envelope and replay raw.
        let hi_fp = Some((i128::from(u64::MAX - 8 * 4096), i128::from(u64::MAX)));
        assert!(p.plan_linear(8, 4096, hi_fp).is_none());
        // Footprint below the floor likewise.
        let lo_fp = Some((0i128, 4096 * 64));
        assert!(p.plan_linear(64, 4096, lo_fp).is_none());
    }

    #[test]
    fn fast_forward_engages_and_preserves_digest() {
        let spec = tiny_spec();
        let trace = |_tid: u32, sink: &mut CorePipeline| {
            sink.access_strided(1 << 30, 64, 4096, 8, false);
        };
        let analytic = Machine::new(spec.clone())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(spec.clone())
            .with_analytic(false)
            .simulate(1, trace);
        let reference = Machine::new(spec)
            .with_analytic(false)
            .without_fastpath()
            .simulate(1, trace);
        assert!(
            analytic.analytic_ops > 0,
            "steady sweep must fast-forward: {analytic:?}"
        );
        assert_eq!(replay.analytic_ops, 0);
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
        assert_eq!(analytic.stats_digest(), reference.stats_digest());
    }

    #[test]
    fn ops_near_address_space_top_fall_back_bit_exactly() {
        // Satellite of the PR-4 end-of-address-space clamps: the analytic
        // path must reject (envelope) and replay identically to the
        // non-analytic machine right up against u64::MAX.
        let spec = tiny_spec();
        let base = u64::MAX - 64 * 4096;
        let trace = |_tid: u32, sink: &mut CorePipeline| {
            sink.access_strided(base, 64, 4096, 8, false);
            sink.access_range(u64::MAX - 8, u64::MAX, false);
        };
        let analytic = Machine::new(spec.clone())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(spec).with_analytic(false).simulate(1, trace);
        assert_eq!(analytic.analytic_ops, 0, "envelope must reject");
        assert!(analytic.replay_fallback_ops > 0);
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
    }

    #[test]
    fn random_replacement_falls_back_honestly() {
        // U74-style random replacement advances its RNG per eviction; the
        // exact RNG compare must fail and force concrete replay.
        let mut spec = tiny_spec();
        spec.caches[0] = CacheConfig::new("L1", 4096, 4, 64)
            .policy(ReplacementPolicy::Random)
            .latency(4)
            .bytes_per_cycle(8.0);
        let trace = |_tid: u32, sink: &mut CorePipeline| {
            sink.access_strided(1 << 30, 64, 1 << 14, 8, false);
        };
        let analytic = Machine::new(spec.clone())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(spec).with_analytic(false).simulate(1, trace);
        assert_eq!(
            analytic.analytic_ops, 0,
            "random replacement must never fast-forward"
        );
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
    }

    #[test]
    fn repeat_fast_forward_matches_replay() {
        // A recorded Repeat (triad-like multi-op body, uniform step)
        // through the full sink dispatch: per-element loads fold into a
        // Repeat in the recorder and fast-forward from there.
        // P = 8192/8 = 1024 iterations per chunk; 256 chunks gives the
        // warm-up room (up to 32 chunks) for L2's cold fills to age out
        // of their sets so the state goes fully periodic.
        let spec = tiny_spec();
        let trace = |_tid: u32, sink: &mut CorePipeline| {
            for i in 0..(1u64 << 18) {
                sink.load((1 << 30) + i * 8, 8);
                sink.load((1 << 31) + i * 8, 8);
                sink.store((3 << 30) + i * 8, 8);
            }
        };
        let analytic = Machine::new(spec.clone())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(spec.clone())
            .with_analytic(false)
            .simulate(1, trace);
        let reference = Machine::new(spec)
            .with_analytic(false)
            .without_fastpath()
            .simulate(1, trace);
        assert!(
            analytic.analytic_ops > 0,
            "triad must fast-forward: {analytic:?}"
        );
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
        assert_eq!(analytic.stats_digest(), reference.stats_digest());
    }

    #[test]
    fn xeon_blocked_triad_fast_forwards() {
        // Three-level hierarchy with an L2 prefetcher that goes cold
        // after startup (the L1 prefetcher absorbs all demand): exercises
        // the frozen-prefetcher acceptance alongside the streaming L3.
        let spec = Device::IntelXeon4310T.spec().without_tlb();
        let n = 1u64 << 25;
        let trace = move |_tid: u32, sink: &mut CorePipeline| {
            let mut i = 0;
            while i < n {
                let hi = (i + 1024).min(n);
                let bytes = (hi - i) * 8;
                sink.load_range((1 << 41) + i * 8, bytes);
                sink.load_range((1 << 42) + i * 8, bytes);
                sink.store_range((3 << 41) + i * 8, bytes);
                i = hi;
            }
        };
        let analytic = Machine::new(spec.clone())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(spec).with_analytic(false).simulate(1, trace);
        assert!(analytic.analytic_ops > 0, "{analytic:?}");
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
    }

    #[test]
    fn tlb_on_devices_stay_digest_identical() {
        // Mango Pi (TLB on): nonzero-shift loops are rejected by the
        // translation gate, so everything replays; digests must match
        // with zero analytic coverage and the disable kicking in.
        let spec = Device::MangoPiMqPro.spec();
        let trace = |_tid: u32, sink: &mut CorePipeline| {
            for row in 0..64u64 {
                sink.access_strided((1 << 30) + row * 8192, 8, 1024, 8, false);
            }
        };
        let analytic = Machine::new(spec.clone())
            .with_analytic(true)
            .simulate(1, trace);
        let replay = Machine::new(spec).with_analytic(false).simulate(1, trace);
        assert_eq!(analytic.analytic_ops, 0);
        assert_eq!(analytic.stats_digest(), replay.stats_digest());
    }

    #[test]
    fn coverage_estimator_matches_gates() {
        let spec = tiny_spec();
        let program = vec![
            TraceOp::Strided {
                base: 1 << 30,
                stride: 64,
                count: 4096,
                size: 8,
                write: false,
            },
            TraceOp::Access {
                addr: 1 << 30,
                size: 8,
                write: false,
            },
        ];
        let cov = estimate_coverage(&spec, &program);
        assert_eq!(cov.total_elems, 4097);
        assert_eq!(cov.eligible_elems, 4096);
        assert!(cov.percent() > 99.9);
        // The TLB gate zeroes nonzero-stride eligibility.
        let mut tlb_spec = tiny_spec();
        tlb_spec.tlb_enabled = true;
        let cov = estimate_coverage(&tlb_spec, &program);
        assert_eq!(cov.eligible_elems, 0);
    }
}
