//! The per-core memory pipeline: TLBs → caches → DRAM.
//!
//! [`CorePipeline`] implements [`TraceSink`]: kernels (or recorded
//! [`membound_trace::TraceBuffer`]s) stream references into it and it
//! charges each one against the device model, accumulating cycle and
//! traffic accounting per *phase* (the stretches between barriers).

use crate::analytic::Analytic;
use crate::assoc::Reserved;
use crate::cache::{Cache, CacheConfig};
use crate::core::CoreConfig;
use crate::dram::DramConfig;
use crate::prefetch::{Prefetcher, PrefetcherConfig};
use crate::stats::{CycleBreakdown, DramStats, LevelStats, SUBCYCLE_SHIFT};
use crate::tlb::{PageWalk, Tlb, TlbConfig};
use membound_trace::{strided_addr, IterCost, MemAccess, TraceOp, TraceSink};
use serde::{Deserialize, Serialize};

/// Upper bound on modelled cache levels (real devices have 2-3); sized
/// so per-access fill-slot bookkeeping can live on the stack.
pub(crate) const MAX_LEVELS: usize = 4;

/// Upper bound on memoized page-walk radix levels (Sv39 walks 3).
pub(crate) const MAX_WALK_LEVELS: usize = 4;

/// Traffic and cycle accounting for one phase (between barriers) on one
/// core.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseAccum {
    /// Issue + stall cycles of this core during the phase.
    pub cycles: CycleBreakdown,
    /// `supply_bytes[j]` = bytes moved over the bus *supplied by* cache
    /// level `j` (fills downward and writebacks upward both occupy it).
    /// Index 0 is unused (the L1→core path is modelled as issue slots);
    /// the last index (`levels`) is the DRAM bus.
    pub supply_bytes: Vec<u64>,
    /// DRAM byte counters for this phase.
    pub dram: DramStats,
    /// Per-channel DRAM bytes, populated only when the device's
    /// [`DramConfig::contended`] channel model is on (empty otherwise —
    /// the aggregate `dram` counters then fully describe the traffic).
    /// Lines interleave over channels by line address, so the entries
    /// always sum to `dram.bytes_total()`.
    #[serde(default)]
    pub channel_bytes: Vec<u64>,
}

impl PhaseAccum {
    pub(crate) fn new(levels: usize) -> Self {
        Self::with_channels(levels, 0)
    }

    /// An accumulator with `channels` per-channel DRAM byte slots
    /// (0 = channel contention off).
    pub(crate) fn with_channels(levels: usize, channels: u32) -> Self {
        Self {
            cycles: CycleBreakdown::default(),
            supply_bytes: vec![0; levels + 1],
            dram: DramStats::default(),
            channel_bytes: vec![0; channels as usize],
        }
    }

    /// Whether nothing was recorded in this phase.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cycles.total_subcycles() == 0 && self.supply_bytes.iter().all(|&b| b == 0)
    }
}

/// One simulated core plus its private slice of the memory hierarchy.
///
/// Created by [`crate::Machine::simulate`]; owns per-core instances of every
/// cache level (shared levels arrive capacity-partitioned), the TLBs and
/// the prefetchers.
///
/// # Example
///
/// ```
/// use membound_sim::{Device, Machine};
/// use membound_trace::TraceSink;
///
/// let machine = Machine::new(Device::MangoPiMqPro.spec());
/// let report = machine.simulate(1, |_tid, sink| {
///     for i in 0..1024u64 {
///         sink.load(i * 8, 8);
///     }
/// });
/// assert!(report.seconds > 0.0);
/// ```
#[derive(Debug)]
pub struct CorePipeline {
    pub(crate) core: CoreConfig,
    pub(crate) dtlb: Tlb,
    pub(crate) l2tlb: Option<Tlb>,
    pub(crate) walk: PageWalk,
    pub(crate) levels: Vec<Cache>,
    pub(crate) prefetchers: Vec<Option<Prefetcher>>,
    pub(crate) line_bytes: u32,
    /// Channel count of the contended DRAM model, 0 when the device uses
    /// the aggregate model (every paper board). Non-zero routes each
    /// DRAM line transfer into `cur.channel_bytes[line % channels]`.
    pub(crate) dram_channels: u32,
    /// `exposed_subcycles` of each cache level (then DRAM at index
    /// `levels.len()`), precomputed once: the MLP division is quantized
    /// to an integer subcycle constant here and nowhere else, so the
    /// per-miss stall adds in `demand_line` are exact integer
    /// accumulation. A stack array (not a `Vec`) so the per-miss lookup
    /// is a direct indexed load.
    pub(crate) exposed: [u64; MAX_LEVELS + 1],
    /// Full (serialized) latency of each cache level then DRAM, in
    /// subcycles — charged when a miss depends on a just-finished page
    /// walk and MLP cannot overlap it.
    pub(crate) full_latency: [u64; MAX_LEVELS + 1],
    pub(crate) cur: PhaseAccum,
    pub(crate) done: Vec<PhaseAccum>,
    pub(crate) pred_buf: Vec<u64>,
    pub(crate) tlb_enabled: bool,
    pub(crate) fastpath: bool,
    pub(crate) armed: Option<ArmedLine>,
    /// Constant-stride batches received through
    /// [`TraceSink::access_strided`] / [`TraceSink::access_strided_rmw`]
    /// — a digest-excluded diagnostic surfaced through
    /// [`crate::SimReport`].
    pub(crate) strided_batches: u64,
    /// Per radix level, where the previous page walk's PTE line sat in L1
    /// (`(line, set, way)`). Consecutive walks of nearby pages share their
    /// upper-level PTE lines, so most re-probes replay as direct hits; the
    /// slot is re-validated against the live L1 state before every use.
    pub(crate) walk_memo: [Option<(u64, usize, u32)>; MAX_WALK_LEVELS],
    /// `vpn >> 9` of the previous page walk. Every *non-leaf* PTE address
    /// depends on the VPN only through these bits (each level consumes 9
    /// index bits and the leaf level is the only one reading the low 9),
    /// so while they are unchanged the memoized upper-level lines are
    /// this walk's lines too and `PageWalk::pte_address` need not be
    /// recomputed for them.
    pub(crate) walk_upper_node: Option<u64>,
    /// The analytic executor (recorder + fast-forward engine), present
    /// when the machine runs with analytic execution enabled. `None`
    /// means every sink call takes the raw per-element path directly.
    pub(crate) analytic: Option<Box<Analytic>>,
}

/// The repeat-line fast path's memory of the last data line referenced:
/// where it sits in L1, so an immediately following touch of the same
/// line replays as a handful of direct state updates instead of a full
/// translate + multi-level probe (see `CorePipeline::replay_repeat`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArmedLine {
    /// L1 line address of the access.
    pub(crate) line: u64,
    /// L1 set holding it.
    pub(crate) set: usize,
    /// L1 way holding it.
    pub(crate) way: u32,
    /// Whether the line is already dirty (a repeat store then skips the
    /// redundant flag write).
    pub(crate) dirty: bool,
}

/// Everything needed to build one core's pipeline.
#[derive(Debug, Clone)]
pub(crate) struct PipelineConfig {
    pub core: CoreConfig,
    pub caches: Vec<CacheConfig>,
    pub prefetchers: Vec<PrefetcherConfig>,
    pub dtlb: TlbConfig,
    pub l2tlb: Option<TlbConfig>,
    pub walk: PageWalk,
    pub dram: DramConfig,
    pub tlb_enabled: bool,
    pub fastpath: bool,
    pub analytic: bool,
}

impl CorePipeline {
    pub(crate) fn new(cfg: PipelineConfig) -> Self {
        assert!(!cfg.caches.is_empty(), "need at least an L1 cache");
        assert!(
            cfg.caches.len() <= MAX_LEVELS,
            "at most {MAX_LEVELS} cache levels supported"
        );
        assert_eq!(
            cfg.caches.len(),
            cfg.prefetchers.len(),
            "one prefetcher slot per cache level"
        );
        let line_bytes = cfg.caches[0].line_bytes;
        assert!(
            cfg.caches.iter().all(|c| c.line_bytes == line_bytes),
            "all levels must share one line size in this model"
        );
        let n = cfg.caches.len();
        let mut exposed = [0u64; MAX_LEVELS + 1];
        let mut full_latency = [0u64; MAX_LEVELS + 1];
        for (k, c) in cfg.caches.iter().enumerate() {
            exposed[k] = cfg.core.exposed_subcycles(c.latency_cycles);
            full_latency[k] = u64::from(c.latency_cycles) << SUBCYCLE_SHIFT;
        }
        exposed[n] = cfg.core.exposed_subcycles(cfg.dram.latency_cycles);
        full_latency[n] = u64::from(cfg.dram.latency_cycles) << SUBCYCLE_SHIFT;
        let dram_channels = if cfg.dram.contended {
            cfg.dram.channels
        } else {
            0
        };
        Self {
            core: cfg.core,
            dtlb: Tlb::new(cfg.dtlb),
            l2tlb: cfg.l2tlb.map(Tlb::new),
            walk: cfg.walk,
            levels: cfg.caches.into_iter().map(Cache::new).collect(),
            prefetchers: cfg
                .prefetchers
                .into_iter()
                .map(|p| match p {
                    PrefetcherConfig::None => None,
                    other => Some(Prefetcher::new(other)),
                })
                .collect(),
            line_bytes,
            dram_channels,
            exposed,
            full_latency,
            cur: PhaseAccum::with_channels(n, dram_channels),
            done: Vec::new(),
            pred_buf: Vec::new(),
            tlb_enabled: cfg.tlb_enabled,
            fastpath: cfg.fastpath,
            armed: None,
            strided_batches: 0,
            walk_memo: [None; MAX_WALK_LEVELS],
            walk_upper_node: None,
            // Analytic fast-forward scales counters *linearly* over a
            // periodic chunk; a per-channel tally (`line % channels`) is
            // not linear in the chunk's line delta, so contended devices
            // always replay (DESIGN.md §16).
            analytic: if cfg.analytic && cfg.fastpath && !cfg.dram.contended {
                Some(Box::new(Analytic::new()))
            } else {
                None
            },
        }
    }

    /// The core model driving this pipeline.
    #[must_use]
    pub fn core(&self) -> &CoreConfig {
        &self.core
    }

    /// Per-level cache statistics (L1 first).
    #[must_use]
    pub fn cache_stats(&self) -> Vec<LevelStats> {
        self.levels.iter().map(Cache::stats).collect()
    }

    /// First-level TLB statistics.
    #[must_use]
    pub fn dtlb_stats(&self) -> LevelStats {
        self.dtlb.stats()
    }

    /// Second-level TLB statistics, if the device has one.
    #[must_use]
    pub fn l2tlb_stats(&self) -> Option<LevelStats> {
        self.l2tlb.as_ref().map(Tlb::stats)
    }

    /// Finish the current phase and return all per-phase accounting.
    pub(crate) fn finish(mut self) -> CoreOutcome {
        self.analytic_flush();
        self.flush_phase();
        let (analytic_ops, replay_fallback_ops) = self
            .analytic
            .as_ref()
            .map_or((0, 0), |a| (a.analytic_ops, a.replay_fallback_ops));
        CoreOutcome {
            phases: self.done,
            cache_stats: self.levels.iter().map(Cache::stats).collect(),
            dtlb_stats: self.dtlb.stats(),
            l2tlb_stats: self.l2tlb.as_ref().map(Tlb::stats),
            strided_batches: self.strided_batches,
            analytic_ops,
            replay_fallback_ops,
        }
    }

    pub(crate) fn flush_phase(&mut self) {
        let n = self.levels.len();
        let fresh = PhaseAccum::with_channels(n, self.dram_channels);
        let cur = std::mem::replace(&mut self.cur, fresh);
        self.done.push(cur);
    }

    /// Book one DRAM line transfer against its channel (line-interleaved
    /// mapping) when the contended channel model is on; a no-op for the
    /// aggregate model so the paper boards' accounting is untouched.
    #[inline]
    fn tally_dram_channel(&mut self, line: u64) {
        if self.dram_channels != 0 {
            let ch = (line % u64::from(self.dram_channels)) as usize;
            self.cur.channel_bytes[ch] += u64::from(self.line_bytes);
        }
    }

    /// Translate one probe's page; charges TLB latencies and page-walk
    /// references. Returns `true` when a full page walk was needed — the
    /// caller then charges the subsequent data miss *unoverlapped*,
    /// because the data address is not known until the walk completes, so
    /// memory-level parallelism cannot hide it.
    pub(crate) fn translate(&mut self, addr: u64) -> bool {
        if !self.tlb_enabled {
            return false;
        }
        let vpn = self.dtlb.vpn_of(addr);
        // Misses remember their fill slot so the post-walk fills below
        // need no second scan; page walks only touch the data caches, so
        // the slots stay valid across them.
        let (dtlb_hit, dtlb_slot) = self.dtlb.lookup_reserving(vpn);
        if dtlb_hit {
            return false;
        }
        let mut l2_slot = None;
        if let Some(l2) = self.l2tlb.as_mut() {
            let latency = l2.config().latency_cycles;
            let (l2_hit, slot) = l2.lookup_reserving(vpn);
            if l2_hit {
                self.cur.cycles.stall_subcycles += u64::from(latency) << SUBCYCLE_SHIFT;
                self.dtlb.fill_reserved(vpn, dtlb_slot);
                return false;
            }
            l2_slot = slot;
        }
        // Full walk: fixed overhead plus PTE loads replayed through the
        // data caches (no prefetcher training on page-table addresses).
        self.cur.cycles.stall_subcycles += u64::from(self.walk.overhead_cycles) << SUBCYCLE_SHIFT;
        let line_shift = self.line_bytes.trailing_zeros();
        let node = vpn >> 9;
        // Non-leaf levels (`i < upper`) read none of the VPN's low 9
        // bits, so an unchanged `node` means their PTE lines are exactly
        // the previous walk's — the memo invariant below keeps
        // `walk_memo[i]`'s line equal to the *previous* walk's level-`i`
        // line whenever it is populated.
        let upper = self.walk.levels.saturating_sub(1);
        let node_unchanged = self.fastpath && self.walk_upper_node == Some(node);
        for i in 0..self.walk.levels {
            let memo = self.walk_memo.get(i as usize).copied().flatten();
            if self.fastpath {
                // Same PTE line as the previous walk at this level and
                // still plainly resident at the remembered slot: a demand
                // probe of it is an L1 hit with no side effects beyond
                // the hit count and recency — replay those directly. Any
                // staleness (evicted, moved, re-filled by a prefetch)
                // fails the check and takes the full path below, which
                // also refreshes the memo. For upper levels with `node`
                // unchanged the memoized line needs no address
                // recomputation at all.
                if let Some((mline, set, way)) = memo {
                    if i < upper && node_unchanged {
                        if self.levels[0].holds_plain(set, way, mline) {
                            self.levels[0].repeat_hit(set, way);
                        } else {
                            // Stale slot, but the line itself is still
                            // the memoized one: demand it and re-memoize
                            // from the slot the demand reports (walk
                            // traffic trains no prefetcher, so it is
                            // always known).
                            let s = self.demand_line(mline, false, false, false);
                            if let Some(slot) = self.walk_memo.get_mut(i as usize) {
                                *slot = s.map(|(set, way, _)| (mline, set, way));
                            }
                        }
                        continue;
                    }
                    let line = self.walk.pte_address(vpn, i) >> line_shift;
                    if mline == line && self.levels[0].holds_plain(set, way, line) {
                        self.levels[0].repeat_hit(set, way);
                        continue;
                    }
                    let s = self.demand_line(line, false, false, false);
                    if let Some(slot) = self.walk_memo.get_mut(i as usize) {
                        *slot = s.map(|(set, way, _)| (line, set, way));
                    }
                    continue;
                }
                let line = self.walk.pte_address(vpn, i) >> line_shift;
                let s = self.demand_line(line, false, false, false);
                if let Some(slot) = self.walk_memo.get_mut(i as usize) {
                    *slot = s.map(|(set, way, _)| (line, set, way));
                }
            } else {
                let line = self.walk.pte_address(vpn, i) >> line_shift;
                self.demand_line(line, false, false, false);
            }
        }
        if self.fastpath {
            self.walk_upper_node = Some(node);
        }
        if let Some(l2) = self.l2tlb.as_mut() {
            l2.fill_reserved(vpn, l2_slot);
        }
        self.dtlb.fill_reserved(vpn, dtlb_slot);
        true
    }

    /// Charge one line-granular demand reference.
    ///
    /// `train_prefetch` is false for page-walk side traffic. `serialize`
    /// charges the full miss latency instead of the MLP-overlapped share
    /// (set after a page walk, which the data access depends on).
    ///
    /// Returns the line's L1 slot `(set, way, dirty)` when it is known to
    /// end the access plainly resident there — exactly what a follow-up
    /// [`Cache::probe_for_repeat`] of the line would report — so callers
    /// can arm the repeat fast path without rescanning. `None` means
    /// "unknown" (an L1 prefetch fill ran after the slot was determined
    /// and may have displaced the line): callers fall back to the probe.
    pub(crate) fn demand_line(
        &mut self,
        line: u64,
        is_write: bool,
        train_prefetch: bool,
        serialize: bool,
    ) -> Option<(usize, u32, bool)> {
        let n = self.levels.len();
        // L1 first, with an early out on a hit: no stall, no fills — only
        // the L1 prefetcher (which sees every reference) may need to run.
        let (res0, slot0, hit_slot) = self.levels[0].access_reserving(line, is_write);
        if res0.hit {
            if train_prefetch && self.prefetchers[0].is_some() && self.run_prefetcher(0, line) {
                return None;
            }
            return hit_slot;
        }
        // Single-level hierarchies (the MangoPi model) go straight to
        // DRAM on an L1 miss; skip the generic multi-level scaffolding.
        if n == 1 {
            self.cur.cycles.stall_subcycles += if serialize {
                self.full_latency[1]
            } else {
                self.exposed[1]
            };
            let lb = u64::from(self.line_bytes);
            self.cur.supply_bytes[1] += lb;
            self.cur.dram.bytes_read += lb;
            self.cur.dram.reads += 1;
            self.tally_dram_channel(line);
            let (victim, way) = self.levels[0].fill_reserved(line, is_write, slot0);
            if let Some(victim) = victim {
                self.writeback(victim, 0);
            }
            if train_prefetch && self.prefetchers[0].is_some() && self.run_prefetcher(0, line) {
                return None;
            }
            return Some((self.levels[0].set_of_line(line), way, is_write));
        }
        // Probe the remaining levels outward until a hit; each missed
        // level remembers its fill slot so `fill_levels` needs no second
        // placement scan (only other levels are touched between a level's
        // miss and its fill, so the slots stay valid).
        let mut found: Option<usize> = None;
        let mut slots = [None; MAX_LEVELS];
        slots[0] = slot0;
        #[allow(clippy::needless_range_loop)] // indexes both `levels` and `slots`
        for k in 1..n {
            let (res, slot, _) = self.levels[k].access_reserving(line, false);
            if res.hit {
                found = Some(k);
                break;
            }
            slots[k] = slot;
        }

        let l1_way = match found {
            Some(0) => None, // L1 hit: handled by the early out above.
            Some(k) => {
                self.cur.cycles.stall_subcycles += if serialize {
                    self.full_latency[k]
                } else {
                    self.exposed[k]
                };
                // Line moves across each bus from level k down to L1.
                for j in 1..=k {
                    self.cur.supply_bytes[j] += u64::from(self.line_bytes);
                }
                Some(self.fill_levels(line, k, is_write, &slots))
            }
            None => {
                self.cur.cycles.stall_subcycles += if serialize {
                    self.full_latency[n]
                } else {
                    self.exposed[n]
                };
                for j in 1..=n {
                    self.cur.supply_bytes[j] += u64::from(self.line_bytes);
                }
                self.cur.dram.bytes_read += u64::from(self.line_bytes);
                self.cur.dram.reads += 1;
                self.tally_dram_channel(line);
                Some(self.fill_levels(line, n, is_write, &slots))
            }
        };

        // Train prefetchers: level k's prefetcher sees the references that
        // reach level k (i.e. misses of every level above it).
        let mut l1_disturbed = false;
        if train_prefetch {
            let deepest = found.unwrap_or(n);
            for k in 0..n.min(deepest + 1) {
                if self.prefetchers[k].is_some() && self.run_prefetcher(k, line) && k == 0 {
                    l1_disturbed = true;
                }
            }
        }
        if l1_disturbed {
            None
        } else {
            l1_way.map(|w| (self.levels[0].set_of_line(line), w, is_write))
        }
    }

    /// Fill `line` into levels `0..upto` (it was found at `upto`, or DRAM
    /// when `upto == levels.len()`), handling dirty-victim writebacks.
    /// Returns the L1 way the line was installed at.
    fn fill_levels(
        &mut self,
        line: u64,
        upto: usize,
        is_write: bool,
        slots: &[Option<Reserved>; MAX_LEVELS],
    ) -> u32 {
        let mut l1_way = 0;
        for j in (0..upto).rev() {
            // Only the L1 copy is dirtied by a store; lower copies stay clean.
            let dirty = is_write && j == 0;
            let (victim, way) = self.levels[j].fill_reserved(line, dirty, slots[j]);
            if j == 0 {
                l1_way = way;
            }
            if let Some(victim) = victim {
                self.writeback(victim, j);
            }
        }
        l1_way
    }

    /// Write a dirty victim evicted from level `j` into level `j + 1`
    /// (or DRAM), cascading if the insertion evicts another dirty line.
    fn writeback(&mut self, mut victim: u64, mut from_level: usize) {
        let n = self.levels.len();
        loop {
            let next = from_level + 1;
            self.cur.supply_bytes[next] += u64::from(self.line_bytes);
            if next == n {
                self.cur.dram.bytes_written += u64::from(self.line_bytes);
                self.cur.dram.writes += 1;
                self.tally_dram_channel(victim);
                return;
            }
            match self.levels[next].fill(victim, true, false) {
                Some(v2) => {
                    victim = v2;
                    from_level = next;
                }
                None => return,
            }
        }
    }

    /// Let level `k`'s prefetcher observe `line` and perform its fills.
    /// Returns `true` when at least one prefetch line was filled into
    /// level `k` (so any slot remembered for that level may be stale).
    fn run_prefetcher(&mut self, k: usize, line: u64) -> bool {
        self.pred_buf.clear();
        if let Some(pf) = self.prefetchers[k].as_mut() {
            pf.observe(line, &mut self.pred_buf);
        }
        if self.pred_buf.is_empty() {
            return false;
        }
        let mut filled = false;
        let preds = std::mem::take(&mut self.pred_buf);
        let n = self.levels.len();
        for &p in &preds {
            // One read-only probe of level k decides residency and, for
            // an absent line, where its fill lands. Nothing below mutates
            // level k before `fill_prefetch` (the source search only
            // reads the lower levels), so the token stays exact.
            let Some(slot) = self.levels[k].prefetch_slot(p) else {
                continue;
            };
            filled = true;
            // Find the closest level below k that already holds the line.
            let mut source = n; // DRAM by default
            for j in (k + 1)..n {
                if self.levels[j].contains(p) {
                    source = j;
                    break;
                }
            }
            // The line crosses every bus between the source and level k.
            for j in (k + 1)..=source {
                self.cur.supply_bytes[j] += u64::from(self.line_bytes);
            }
            if source == n {
                self.cur.dram.bytes_read += u64::from(self.line_bytes);
                self.cur.dram.reads += 1;
                self.tally_dram_channel(p);
            }
            if let Some(victim) = self.levels[k].fill_prefetch(p, slot) {
                self.writeback(victim, k);
            }
        }
        self.pred_buf = preds;
        filled
    }

    /// Arm the repeat-line fast path on `line`, the data line whose
    /// translate + demand flow just completed; `slot` is the L1 slot
    /// `demand_line` reported for it (`None` = unknown, probe instead).
    ///
    /// Arming succeeds whenever the line ended the access resident in L1
    /// with its prefetched flag consumed — hit or miss, with or without
    /// prefetch fills along the way (`Cache::probe_for_repeat` re-checks
    /// residency *after* any such fills, so an unlucky same-set eviction
    /// simply leaves the path disarmed). The other two replay
    /// preconditions hold by construction: the line's page was the last
    /// DTLB translation, and the L1 prefetcher's last observation was
    /// this line (page-walk traffic trains no prefetcher).
    pub(crate) fn arm(&mut self, line: u64, slot: Option<(usize, u32, bool)>) {
        self.armed =
            slot.or_else(|| self.levels[0].probe_for_repeat(line))
                .map(|(set, way, dirty)| ArmedLine {
                    line,
                    set,
                    way,
                    dirty,
                });
    }

    /// Replay a touch of the armed line with direct state updates.
    ///
    /// Bit-identical to the full path for a repeat reference: the DTLB
    /// lookup would hit its MRU entry (so only the hit counter moves —
    /// re-touching the most recent entry cannot change LRU order), the L1
    /// probe would hit the armed way ([`Cache::repeat_hit`] bumps the hit
    /// counter and re-touches that way's recency exactly as the scan
    /// would, with no stall or traffic), and the L1 prefetcher would
    /// re-observe the same line (clock tick plus a recency refresh of the
    /// matched stream entry, no predictions — see
    /// [`Prefetcher::refresh_repeat`]). A store additionally sets the
    /// dirty flag, exactly as a full-path store hit would.
    pub(crate) fn replay_repeat(&mut self, is_write: bool) {
        if self.tlb_enabled {
            self.dtlb.note_repeat_hit();
        }
        if let Some(armed) = self.armed.as_mut() {
            self.levels[0].repeat_hit(armed.set, armed.way);
            if is_write && !armed.dirty {
                armed.dirty = true;
                let (set, way) = (armed.set, armed.way);
                self.levels[0].mark_dirty(set, way);
            }
        }
        if let Some(pf) = self.prefetchers[0].as_mut() {
            pf.refresh_repeat();
        }
    }
}

/// The raw per-element execution paths — the pre-analytic [`TraceSink`]
/// bodies, verbatim. The trait impl below routes here either directly
/// (analytic execution off or disabled) or through the analytic
/// executor's recorder, whose replay calls these same methods.
impl CorePipeline {
    pub(crate) fn raw_access(&mut self, access: MemAccess) {
        let shift = self.line_bytes.trailing_zeros();
        let is_write = access.kind.is_write();
        // Repeat-line fast path: a single-line touch of the data line
        // referenced immediately before replays as direct state updates
        // (see `replay_repeat` for the equivalence argument).
        if let Some(armed) = self.armed {
            if access.addr >> shift == armed.line
                && (access.size == 0 || (access.end() - 1) >> shift <= armed.line)
            {
                self.replay_repeat(is_write);
                return;
            }
        }
        self.armed = None;
        // Scalar probes (the overwhelmingly common case) touch one line;
        // go straight to it without the line-splitting iterator.
        let first = access.addr >> shift;
        let last = if access.size == 0 {
            first
        } else {
            (access.end() - 1) >> shift
        };
        if first == last {
            let walked = self.translate(access.addr);
            let slot = self.demand_line(first, is_write, true, walked);
            if self.fastpath {
                self.arm(first, slot);
            }
            return;
        }
        let line_size = u64::from(self.line_bytes);
        let mut last_line = 0;
        let mut last_slot = None;
        for line in access.lines(line_size) {
            let walked = self.translate(line << shift);
            last_slot = self.demand_line(line, is_write, true, walked);
            last_line = line;
        }
        if self.fastpath {
            self.arm(last_line, last_slot);
        }
    }

    pub(crate) fn raw_compute(&mut self, cost: IterCost, iters: u64) {
        self.cur.cycles.issue_subcycles += self.core.issue_subcycles(&cost, iters);
    }

    pub(crate) fn raw_barrier(&mut self) {
        self.flush_phase();
    }

    /// Bulk unit-stride run: probe per line and translate per page
    /// instead of per probe.
    ///
    /// Statistic-for-statistic identical to the default per-probe
    /// splitting (the simulator never looks at probe *sizes*, only at
    /// the line sequence): each line goes through the same
    /// translate + demand flow, with two short-circuits — the repeat-line
    /// fast path for a line that is still armed, and a DTLB repeat-hit
    /// bump for lines within the page translated immediately before
    /// (whose VPN is by construction the DTLB's MRU entry).
    pub(crate) fn raw_access_range(&mut self, addr: u64, len: u64, write: bool) {
        if len == 0 {
            return;
        }
        let shift = self.line_bytes.trailing_zeros();
        let end = addr.saturating_add(len);
        let first = addr >> shift;
        let last = ((end - 1) >> shift).max(first);
        let mut cur_vpn: Option<u64> = None;
        for line in first..=last {
            if let Some(armed) = self.armed {
                if armed.line == line {
                    self.replay_repeat(write);
                    continue;
                }
            }
            self.armed = None;
            let base = line << shift;
            let walked = if !self.tlb_enabled {
                false
            } else {
                let vpn = self.dtlb.vpn_of(base);
                if self.fastpath && cur_vpn == Some(vpn) {
                    self.dtlb.note_repeat_hit();
                    false
                } else {
                    let walked = self.translate(base);
                    cur_vpn = Some(vpn);
                    walked
                }
            };
            let slot = self.demand_line(line, write, true, walked);
            // Arming matters only for the state carried *out* of the run:
            // within it, consecutive lines never repeat.
            if self.fastpath && line == last {
                self.arm(line, slot);
            }
        }
    }

    /// Bulk constant-stride run: one dispatch for the whole batch, with
    /// same-page spans paying a single DTLB translation.
    ///
    /// Statistic-for-statistic identical to the default per-element
    /// emission. Each element takes the scalar flow with three
    /// short-circuits, every one already carrying a PR 2 equivalence
    /// argument: (1) an element whose line is still armed replays through
    /// `replay_repeat`; (2) an element on the page translated immediately
    /// before (the DTLB's MRU entry by construction — `note_repeat_hit`
    /// survives armed replays, which touch no TLB order) books a repeat
    /// hit without the lookup scan; (3) when `|stride| >= line_bytes`,
    /// consecutive single-line elements can never share a line, so arming
    /// mid-run is unobservable (`Cache::probe_for_repeat` is read-only)
    /// and only the final element arms. Elements straddling a line
    /// boundary fall back to the scalar multi-line flow verbatim.
    pub(crate) fn raw_access_strided(
        &mut self,
        base: u64,
        stride_bytes: i64,
        count: u64,
        size: u32,
        write: bool,
    ) {
        if count == 0 {
            return;
        }
        self.strided_batches += 1;
        if !self.fastpath {
            // Reference build: per-element dispatch, exactly the trait
            // default.
            for i in 0..count {
                let addr = strided_addr(base, stride_bytes, i);
                self.raw_access(if write {
                    MemAccess::store(addr, size)
                } else {
                    MemAccess::load(addr, size)
                });
            }
            return;
        }
        let shift = self.line_bytes.trailing_zeros();
        let may_repeat = stride_bytes.unsigned_abs() < u64::from(self.line_bytes);
        // A stride of at least a page moves every element to a fresh
        // page (a mod-2^64 wrap lands at least 2^63 bytes away), so the
        // same-page shortcut can never fire and its VPN bookkeeping is
        // skipped wholesale.
        let page_repeat =
            self.tlb_enabled && stride_bytes.unsigned_abs() < self.dtlb.config().page_bytes;
        let mut cur_vpn: Option<u64> = None;
        for i in 0..count {
            let addr = strided_addr(base, stride_bytes, i);
            let first = addr >> shift;
            let last = if size == 0 {
                first
            } else {
                (addr.saturating_add(u64::from(size)) - 1) >> shift
            };
            if let Some(armed) = self.armed {
                if first == armed.line && last <= armed.line {
                    self.replay_repeat(write);
                    continue;
                }
            }
            self.armed = None;
            if first != last {
                // Straddling element: the scalar multi-line flow.
                let mut last_line = 0;
                let mut last_slot = None;
                for line in first..=last {
                    let walked = self.translate(line << shift);
                    last_slot = self.demand_line(line, write, true, walked);
                    last_line = line;
                }
                self.arm(last_line, last_slot);
                cur_vpn = None;
                continue;
            }
            let walked = if !self.tlb_enabled {
                false
            } else if page_repeat {
                let vpn = self.dtlb.vpn_of(addr);
                if cur_vpn == Some(vpn) {
                    self.dtlb.note_repeat_hit();
                    false
                } else {
                    let walked = self.translate(addr);
                    cur_vpn = Some(vpn);
                    walked
                }
            } else {
                self.translate(addr)
            };
            let slot = self.demand_line(first, write, true, walked);
            if may_repeat || i + 1 == count {
                self.arm(first, slot);
            }
        }
    }

    /// Bulk constant-stride load+store pairs — the transpose column walk.
    ///
    /// Per element, the load takes the same flow as
    /// [`CorePipeline::access_strided`]; the store then replays against
    /// the line the load left in L1 — the very updates the scalar store
    /// would make through the armed path, using the L1 slot the load's
    /// `demand_line` reports (identical to the arm's `probe_for_repeat`,
    /// which only runs as a fallback when a same-set prefetch fill made
    /// the slot stale). When neither resolves the line (it was displaced
    /// between the load's fill and now), the store takes the full scalar
    /// path, exactly as the per-element default would after a failed arm.
    pub(crate) fn raw_access_strided_rmw(
        &mut self,
        base: u64,
        stride_bytes: i64,
        count: u64,
        size: u32,
    ) {
        if count == 0 {
            return;
        }
        self.strided_batches += 1;
        if !self.fastpath {
            for i in 0..count {
                let addr = strided_addr(base, stride_bytes, i);
                self.raw_access(MemAccess::load(addr, size));
                self.raw_access(MemAccess::store(addr, size));
            }
            return;
        }
        let shift = self.line_bytes.trailing_zeros();
        // See `access_strided`: page-or-larger strides cannot revisit the
        // previous element's page, so the VPN shortcut is compiled out of
        // the loop.
        let page_repeat =
            self.tlb_enabled && stride_bytes.unsigned_abs() < self.dtlb.config().page_bytes;
        let mut cur_vpn: Option<u64> = None;
        for i in 0..count {
            let addr = strided_addr(base, stride_bytes, i);
            let first = addr >> shift;
            let last = if size == 0 {
                first
            } else {
                (addr.saturating_add(u64::from(size)) - 1) >> shift
            };
            if let Some(armed) = self.armed {
                if first == armed.line && last <= armed.line {
                    self.replay_repeat(false);
                    self.replay_repeat(true);
                    continue;
                }
            }
            self.armed = None;
            if first != last {
                // Straddling pair: both halves through the scalar flow
                // (the load's arm and the store's replay happen inside
                // `raw_access`).
                self.raw_access(MemAccess::load(addr, size));
                self.raw_access(MemAccess::store(addr, size));
                cur_vpn = None;
                continue;
            }
            let walked = if !self.tlb_enabled {
                false
            } else if page_repeat {
                let vpn = self.dtlb.vpn_of(addr);
                if cur_vpn == Some(vpn) {
                    self.dtlb.note_repeat_hit();
                    false
                } else {
                    let walked = self.translate(addr);
                    cur_vpn = Some(vpn);
                    walked
                }
            } else {
                self.translate(addr)
            };
            let slot = self.demand_line(first, false, true, walked);
            match slot.or_else(|| self.levels[0].probe_for_repeat(first)) {
                Some((set, way, dirty)) => {
                    if self.tlb_enabled {
                        self.dtlb.note_repeat_hit();
                    }
                    self.levels[0].repeat_hit(set, way);
                    if !dirty {
                        self.levels[0].mark_dirty(set, way);
                    }
                    if let Some(pf) = self.prefetchers[0].as_mut() {
                        pf.refresh_repeat();
                    }
                    self.armed = Some(ArmedLine {
                        line: first,
                        set,
                        way,
                        dirty: true,
                    });
                }
                None => {
                    let walked = self.translate(addr);
                    let slot = self.demand_line(first, true, true, walked);
                    self.arm(first, slot);
                    if self.tlb_enabled {
                        cur_vpn = Some(self.dtlb.vpn_of(addr));
                    }
                }
            }
        }
    }
}

impl TraceSink for CorePipeline {
    fn access(&mut self, access: MemAccess) {
        if self.analytic_live() {
            self.analytic_push(TraceOp::Access {
                addr: access.addr,
                size: access.size,
                write: access.kind.is_write(),
            });
        } else {
            self.raw_access(access);
        }
    }

    fn compute(&mut self, cost: IterCost, iters: u64) {
        if self.analytic_live() {
            self.analytic_push(TraceOp::Compute { cost, iters });
        } else {
            self.raw_compute(cost, iters);
        }
    }

    fn barrier(&mut self) {
        // Phases never span a barrier, so the recorder drains first: every
        // buffered op belongs to the phase being closed.
        self.analytic_flush();
        self.raw_barrier();
    }

    fn access_range(&mut self, addr: u64, len: u64, write: bool) {
        if self.analytic_live() {
            self.analytic_push(TraceOp::Range { addr, len, write });
        } else {
            self.raw_access_range(addr, len, write);
        }
    }

    fn access_strided(&mut self, base: u64, stride_bytes: i64, count: u64, size: u32, write: bool) {
        if self.analytic_live() {
            self.analytic_push(TraceOp::Strided {
                base,
                stride: stride_bytes,
                count,
                size,
                write,
            });
        } else {
            self.raw_access_strided(base, stride_bytes, count, size, write);
        }
    }

    fn access_strided_rmw(&mut self, base: u64, stride_bytes: i64, count: u64, size: u32) {
        if self.analytic_live() {
            self.analytic_push(TraceOp::StridedRmw {
                base,
                stride: stride_bytes,
                count,
                size,
            });
        } else {
            self.raw_access_strided_rmw(base, stride_bytes, count, size);
        }
    }
}

/// Everything a finished core run hands back to the machine.
#[derive(Debug, Clone)]
pub(crate) struct CoreOutcome {
    pub phases: Vec<PhaseAccum>,
    pub cache_stats: Vec<LevelStats>,
    pub dtlb_stats: LevelStats,
    pub l2tlb_stats: Option<LevelStats>,
    pub strided_batches: u64,
    /// Elements advanced analytically (fast-forwarded, never executed).
    pub analytic_ops: u64,
    /// Elements replayed raw inside fast-forward-attempted ops that
    /// could not be proven periodic.
    pub replay_fallback_ops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::ReplacementPolicy;

    fn test_pipeline(prefetch: PrefetcherConfig) -> CorePipeline {
        CorePipeline::new(PipelineConfig {
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
            prefetchers: vec![prefetch, PrefetcherConfig::None],
            dtlb: TlbConfig::fully_associative("DTLB", 16),
            l2tlb: Some(TlbConfig::direct_mapped("L2TLB", 64).latency(10)),
            walk: PageWalk::sv39(),
            dram: DramConfig::new(100, 1.0, 1),
            tlb_enabled: false,
            fastpath: true,
            analytic: false,
        })
    }

    #[test]
    fn cold_miss_reaches_dram_then_hits() {
        let mut p = test_pipeline(PrefetcherConfig::None);
        p.load(0, 8);
        assert_eq!(p.cur.dram.bytes_read, 64);
        let stall_after_miss = p.cur.cycles.stall_subcycles;
        assert_eq!(stall_after_miss, 100 << SUBCYCLE_SHIFT);
        p.load(8, 8); // same line: L1 hit
        assert_eq!(p.cur.cycles.stall_subcycles, stall_after_miss);
        assert_eq!(p.cache_stats()[0].hits, 1);
    }

    #[test]
    fn l2_hit_charges_l2_latency_and_bus() {
        let mut p = test_pipeline(PrefetcherConfig::None);
        // Fill L1 set 0 with conflicting lines; L1 is 4KB/4w/64B = 16 sets.
        // Lines 0, 16, 32, 48, 64 map to set 0.
        for l in [0u64, 16, 32, 48, 64] {
            p.load(l * 64, 8);
        }
        // Line 0 evicted from L1 (LRU) but still in L2.
        let before = p.cur.cycles.stall_subcycles;
        let dram_before = p.cur.dram.bytes_read;
        p.load(0, 8);
        assert_eq!(
            p.cur.dram.bytes_read, dram_before,
            "L2 hit: no DRAM traffic"
        );
        assert_eq!(p.cur.cycles.stall_subcycles - before, 12 << SUBCYCLE_SHIFT);
    }

    #[test]
    fn store_miss_allocates_and_writeback_happens_on_eviction() {
        let mut p = test_pipeline(PrefetcherConfig::None);
        p.store(0, 8); // write-allocate: DRAM read
        assert_eq!(p.cur.dram.bytes_read, 64);
        assert_eq!(p.cur.dram.bytes_written, 0);
        // Evict line 0 from L1 via conflicting fills, then out of L2 too.
        // L2 is 64KB/8w/64B = 128 sets; lines k*128 map to L2 set 0 (and to
        // L1 set 0). The L1 eviction writes line 0 back into L2 (refreshing
        // its recency there), so it takes a dozen more conflicting fills to
        // push the dirty copy out of the 8-way L2 set and into DRAM.
        for i in 1..=20u64 {
            p.load(i * 128 * 64, 8);
        }
        assert_eq!(
            p.cur.dram.bytes_written, 64,
            "dirty line must be written back to DRAM eventually"
        );
    }

    #[test]
    fn sequential_sweep_with_prefetch_mostly_prefetch_hits() {
        let mut p = test_pipeline(PrefetcherConfig::c906());
        for i in 0..256u64 {
            p.load(i * 64, 8);
        }
        let l1 = p.cache_stats()[0];
        assert!(
            l1.prefetch_hits > 200,
            "sequential sweep should be covered by prefetch: {l1:?}"
        );
    }

    #[test]
    fn prefetch_consumes_dram_bandwidth() {
        let mut with = test_pipeline(PrefetcherConfig::c906());
        let mut without = test_pipeline(PrefetcherConfig::None);
        // A short sweep, abandoned: prefetcher overfetches past the end.
        for i in 0..8u64 {
            with.load(i * 64, 8);
            without.load(i * 64, 8);
        }
        assert!(
            with.cur.dram.bytes_read >= without.cur.dram.bytes_read,
            "prefetching must not reduce DRAM reads on a cold sweep"
        );
    }

    #[test]
    fn stall_reduced_by_prefetching_on_long_sweep() {
        let mut with = test_pipeline(PrefetcherConfig::c906());
        let mut without = test_pipeline(PrefetcherConfig::None);
        for i in 0..512u64 {
            with.load(i * 64, 8);
            without.load(i * 64, 8);
        }
        assert!(
            with.cur.cycles.stall_subcycles < without.cur.cycles.stall_subcycles / 2,
            "prefetch should hide most DRAM latency: {} vs {}",
            with.cur.cycles.stall_subcycles,
            without.cur.cycles.stall_subcycles
        );
    }

    #[test]
    fn barrier_splits_phases() {
        let mut p = test_pipeline(PrefetcherConfig::None);
        p.load(0, 8);
        p.barrier();
        p.load(4096, 8);
        let out = p.finish();
        assert_eq!(out.phases.len(), 2);
        assert!(out.phases.iter().all(|ph| ph.dram.bytes_read == 64));
    }

    #[test]
    fn compute_charges_issue_cycles() {
        let mut p = test_pipeline(PrefetcherConfig::None);
        p.compute(IterCost::new(2, 1).mem(1, 0), 100);
        assert_eq!(p.cur.cycles.issue_subcycles, 400 << SUBCYCLE_SHIFT);
    }

    #[test]
    fn tlb_walk_charged_when_enabled() {
        let mut cfg_pipeline = test_pipeline(PrefetcherConfig::None);
        cfg_pipeline.tlb_enabled = true;
        // Touch many distinct pages: DTLB (16) and L2 TLB (64) overflow.
        for page in 0..256u64 {
            cfg_pipeline.load(page * 4096, 8);
        }
        let d = cfg_pipeline.dtlb_stats();
        assert_eq!(d.accesses(), 256);
        assert!(d.misses >= 256, "every new page misses the DTLB");
        let l2 = cfg_pipeline.l2tlb_stats().expect("has L2 TLB");
        assert!(l2.misses > 0);
        // Walk PTE loads show up as extra cache traffic.
        assert!(cfg_pipeline.cache_stats()[0].accesses() > 256);
    }

    #[test]
    fn page_walks_serialize_the_dependent_miss() {
        // With TLB simulation on, a page-crossing strided walk pays the
        // *full* DRAM latency per miss (the data address depends on the
        // walk); with it off, MLP overlaps part of it. The enabled run
        // must therefore stall strictly more per access.
        let mut with_tlb = test_pipeline(PrefetcherConfig::None);
        with_tlb.tlb_enabled = true;
        let mut without_tlb = test_pipeline(PrefetcherConfig::None);
        for i in 0..512u64 {
            with_tlb.load(i * 8192, 8);
            without_tlb.load(i * 8192, 8);
        }
        // The test core has mlp 1.0, so serialization alone changes
        // nothing — but walk overhead and PTE loads must show up.
        assert!(
            with_tlb.cur.cycles.stall_subcycles > without_tlb.cur.cycles.stall_subcycles,
            "walks must cost cycles: {} vs {}",
            with_tlb.cur.cycles.stall_subcycles,
            without_tlb.cur.cycles.stall_subcycles
        );
        // And with an overlapping core, the serialized path still pays
        // full latency per walked miss.
        let mut mlp_core = test_pipeline(PrefetcherConfig::None);
        mlp_core.core = CoreConfig::new("ooo", 1.0, 4, 0, 8.0);
        mlp_core.tlb_enabled = true;
        mlp_core.load(1 << 30, 8); // fresh page: walk + serialized miss
        assert!(
            mlp_core.cur.cycles.stall_subcycles >= 100 << SUBCYCLE_SHIFT,
            "serialized DRAM miss must not be divided by MLP: {}",
            mlp_core.cur.cycles.stall_subcycles
        );
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut p = test_pipeline(PrefetcherConfig::None);
        p.load(60, 8); // crosses line 0 into line 1
        assert_eq!(p.cur.dram.reads, 2);
    }

    #[test]
    fn supply_bytes_accumulate_per_bus() {
        let mut p = test_pipeline(PrefetcherConfig::None);
        p.load(0, 8); // miss to DRAM: both buses + DRAM
        assert_eq!(p.cur.supply_bytes[1], 64, "L2->L1 bus");
        assert_eq!(p.cur.supply_bytes[2], 64, "DRAM bus");
    }

    /// Drive a pipeline pair — one through the bulk batch executors, one
    /// through the per-element expansion — and require every observable
    /// counter to match, not just the digest.
    fn assert_strided_counters_match(
        prefetch: PrefetcherConfig,
        batched: impl Fn(&mut CorePipeline),
        scalar: impl Fn(&mut CorePipeline),
    ) {
        let mut b = test_pipeline(prefetch);
        let mut s = test_pipeline(prefetch);
        batched(&mut b);
        scalar(&mut s);
        assert_eq!(b.cache_stats(), s.cache_stats(), "cache counters diverged");
        assert_eq!(b.dtlb_stats(), s.dtlb_stats(), "DTLB counters diverged");
        assert_eq!(b.l2tlb_stats(), s.l2tlb_stats(), "L2 TLB counters diverged");
        assert_eq!(b.cur, s.cur, "phase accumulators diverged");
    }

    #[test]
    fn strided_batch_counters_match_per_element_loads() {
        for pf in [PrefetcherConfig::None, PrefetcherConfig::c906()] {
            assert_strided_counters_match(
                pf,
                |p| p.access_strided(0x1000, 192, 48, 8, false),
                |p| {
                    for i in 0..48 {
                        p.load(strided_addr(0x1000, 192, i), 8);
                    }
                },
            );
        }
    }

    #[test]
    fn strided_batch_counters_match_with_negative_stride_and_straddles() {
        assert_strided_counters_match(
            PrefetcherConfig::c906(),
            |p| p.access_strided(0x20_0000, -60, 40, 16, true),
            |p| {
                for i in 0..40 {
                    p.store(strided_addr(0x20_0000, -60, i), 16);
                }
            },
        );
    }

    #[test]
    fn strided_batch_counters_match_when_entering_an_armed_line() {
        // The scalar store arms the repeat line the batch then lands on.
        assert_strided_counters_match(
            PrefetcherConfig::None,
            |p| {
                p.store(0x4000, 8);
                p.access_strided(0x4000, 8, 24, 8, false);
            },
            |p| {
                p.store(0x4000, 8);
                for i in 0..24 {
                    p.load(0x4000 + i * 8, 8);
                }
            },
        );
    }

    #[test]
    fn strided_rmw_counters_match_load_store_pairs_across_pages() {
        for stride in [4096i64, 8192, -8192] {
            assert_strided_counters_match(
                PrefetcherConfig::c906(),
                |p| p.access_strided_rmw(0x80_0000, stride, 32, 8),
                |p| {
                    for i in 0..32 {
                        let a = strided_addr(0x80_0000, stride, i);
                        p.load(a, 8);
                        p.store(a, 8);
                    }
                },
            );
        }
    }

    fn contended_pipeline(levels: usize) -> CorePipeline {
        let mut caches = vec![CacheConfig::new("L1", 4096, 4, 64)
            .policy(ReplacementPolicy::Lru)
            .latency(4)
            .bytes_per_cycle(8.0)];
        if levels > 1 {
            caches.push(
                CacheConfig::new("L2", 65536, 8, 64)
                    .latency(12)
                    .bytes_per_cycle(8.0),
            );
        }
        let prefetchers = std::iter::once(PrefetcherConfig::c906())
            .chain(std::iter::repeat(PrefetcherConfig::None))
            .take(levels)
            .collect();
        CorePipeline::new(PipelineConfig {
            core: CoreConfig::new("test", 1.0, 1, 0, 1.0),
            caches,
            prefetchers,
            dtlb: TlbConfig::fully_associative("DTLB", 16),
            l2tlb: None,
            walk: PageWalk::sv39(),
            dram: DramConfig::new(100, 4.0, 4).with_channel_contention(),
            tlb_enabled: false,
            fastpath: true,
            analytic: true,
        })
    }

    #[test]
    fn contended_channel_tallies_cover_every_dram_byte() {
        for levels in [1usize, 2] {
            let mut p = contended_pipeline(levels);
            assert!(
                p.analytic.is_none(),
                "contended devices must always replay (no linear fast-forward)"
            );
            // Demand misses + prefetch fills (sweep), dirty writebacks
            // (stores conflicting through the tiny L1 set), and a phase
            // boundary mid-stream.
            for i in 0..512u64 {
                p.load(i * 64, 8);
            }
            p.barrier();
            for i in 0..64u64 {
                p.store(i * 4096, 8);
            }
            let out = p.finish();
            assert!(out.phases.len() >= 2);
            for (k, ph) in out.phases.iter().enumerate() {
                assert_eq!(ph.channel_bytes.len(), 4, "levels={levels} phase {k}");
                assert_eq!(
                    ph.channel_bytes.iter().sum::<u64>(),
                    ph.dram.bytes_total(),
                    "levels={levels} phase {k}: every DRAM line must be \
                     booked against exactly one channel"
                );
            }
            assert!(
                out.phases
                    .iter()
                    .any(|ph| ph.channel_bytes.iter().sum::<u64>() > 0),
                "levels={levels}: the workload must generate DRAM traffic"
            );
        }
    }

    #[test]
    fn uncontended_phases_carry_no_channel_vector() {
        let mut p = test_pipeline(PrefetcherConfig::None);
        p.load(0, 8);
        let out = p.finish();
        assert!(out.phases.iter().all(|ph| ph.channel_bytes.is_empty()));
    }

    #[test]
    fn strided_batches_are_tallied_but_not_digested() {
        let mut p = test_pipeline(PrefetcherConfig::None);
        p.access_strided(0x1000, 64, 8, 8, false);
        p.access_strided_rmw(0x8000, 64, 8, 8);
        assert_eq!(p.finish().strided_batches, 2);
    }
}
