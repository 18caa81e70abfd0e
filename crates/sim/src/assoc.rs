//! The flat set-associative storage engine shared by [`crate::Cache`] and
//! [`crate::Tlb`].
//!
//! Tags, per-line flags and replacement-policy state live in flat arrays
//! (one row of `ways` entries per set), and each set keeps a *last-hit
//! way* hint so the repeat-heavy reference streams the kernels generate
//! (64 line probes per page, sliding filter windows) resolve in one
//! comparison instead of a full way scan. Semantics are identical to a
//! naïve per-set implementation; the unit and property tests of `cache`
//! and `tlb` pin that down.

use crate::replacement::ReplacementPolicy;

/// Tag value marking an empty way. Real keys are line addresses
/// (`addr >> 6`, at most 2^58) or virtual page numbers (at most 2^52),
/// so the all-ones pattern can never collide with one; scans can then
/// test occupancy and tag match with a single comparison instead of a
/// flags load plus a tag load per way. `FLAG_VALID` is still maintained
/// for the metadata accessors.
pub(crate) const TAG_INVALID: u64 = u64::MAX;

/// Per-entry flag bits.
pub(crate) const FLAG_VALID: u8 = 1;
/// Entry has been written and differs from the level below.
pub(crate) const FLAG_DIRTY: u8 = 2;
/// Entry was installed by a prefetcher and not yet demanded.
pub(crate) const FLAG_PREFETCHED: u8 = 4;

/// Result of inserting a key into a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InsertOutcome {
    /// The key was already present at this way (flags untouched except as
    /// requested by the caller).
    AlreadyPresent(u32),
    /// Installed into a previously invalid way.
    Installed(u32),
    /// Installed by evicting the previous occupant; its tag and flags are
    /// returned.
    Evicted {
        /// The way that was overwritten.
        way: u32,
        /// Tag of the evicted entry.
        old_tag: u64,
        /// Flags of the evicted entry.
        old_flags: u8,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct AssocArray {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    flags: Vec<u8>,
    policy: ReplacementPolicy,
    /// LRU/FIFO recency stamps (empty for other policies).
    stamps: Vec<u64>,
    /// Tree-PLRU bits, `ways - 1` per set (empty for other policies).
    plru: Vec<bool>,
    clock: u64,
    rng: u64,
    /// Last-hit way per set (fast path for repeated keys).
    hint: Vec<u32>,
    /// `sets - 1` when the set count is a power of two (every shipped
    /// config), else `u64::MAX` as a "use modulo" sentinel — precomputed
    /// so the per-access set index is a single mask.
    set_mask: u64,
}

/// Select-based scan of one set's tags: `(match_way, first_invalid_way)`,
/// each `u32::MAX` when absent. No data-dependent branches — the loop
/// body folds with conditional moves, so the compiler unrolls (and
/// auto-vectorizes) it and a thrashing set costs no branch mispredicts.
/// Keys are unique within a set, so last-write-wins on `found` is exact;
/// `min` keeps first-invalid semantics.
#[inline(always)]
fn scan_tags_fixed<const W: usize>(tags: &[u64], key: u64) -> (u32, u32) {
    let tags: &[u64; W] = tags.try_into().expect("way count");
    let mut found = u32::MAX;
    let mut first_invalid = u32::MAX;
    for (w, &t) in tags.iter().enumerate() {
        if t == key {
            found = w as u32;
        }
        if t == TAG_INVALID {
            first_invalid = first_invalid.min(w as u32);
        }
    }
    (found, first_invalid)
}

fn scan_tags_dyn(tags: &[u64], key: u64) -> (u32, u32) {
    let mut found = u32::MAX;
    let mut first_invalid = u32::MAX;
    for (w, &t) in tags.iter().enumerate() {
        if t == key {
            found = w as u32;
        }
        if t == TAG_INVALID {
            first_invalid = first_invalid.min(w as u32);
        }
    }
    (found, first_invalid)
}

/// Dispatch to a fully unrolled scan for the way counts the shipped
/// device models use (2/4/8-way caches and TLBs, the C906's 10-entry and
/// larger fully associative uTLBs).
#[inline(always)]
fn scan_tags(tags: &[u64], key: u64) -> (u32, u32) {
    match tags.len() {
        2 => scan_tags_fixed::<2>(tags, key),
        4 => scan_tags_fixed::<4>(tags, key),
        8 => scan_tags_fixed::<8>(tags, key),
        10 => scan_tags_fixed::<10>(tags, key),
        16 => scan_tags_fixed::<16>(tags, key),
        32 => scan_tags_fixed::<32>(tags, key),
        _ => scan_tags_dyn(tags, key),
    }
}

/// First way holding the minimum stamp, via a branch-free fold over
/// `(stamp, way)` keys (the way bits break ties toward the first
/// minimum, matching the original first-strict-minimum scan). Only
/// meaningful when the whole set is valid — exactly the case the victim
/// scan is consulted in.
///
/// The fixed-width variants pack the key into one `u64` — `stamp << 6 |
/// way` — which is exact because `W <= 32` fits in 6 bits and stamps are
/// access-clock values far below `2^58` (the clock advances once per
/// touched reference; a simulation long enough to overflow would run for
/// years). `debug_assert`s on the clock in `touch`/`stamp_fill` pin the
/// bound.
#[inline(always)]
fn scan_oldest_fixed<const W: usize>(stamps: &[u64]) -> u32 {
    let stamps: &[u64; W] = stamps.try_into().expect("way count");
    let mut best = u64::MAX;
    for (w, &s) in stamps.iter().enumerate() {
        best = best.min((s << 6) | w as u64);
    }
    (best & 63) as u32
}

fn scan_oldest_dyn(stamps: &[u64]) -> u32 {
    let mut best = u128::MAX;
    for (w, &s) in stamps.iter().enumerate() {
        best = best.min((u128::from(s) << 32) | w as u128);
    }
    (best & u128::from(u32::MAX)) as u32
}

#[inline(always)]
fn scan_oldest(stamps: &[u64]) -> u32 {
    match stamps.len() {
        2 => scan_oldest_fixed::<2>(stamps),
        4 => scan_oldest_fixed::<4>(stamps),
        8 => scan_oldest_fixed::<8>(stamps),
        10 => scan_oldest_fixed::<10>(stamps),
        16 => scan_oldest_fixed::<16>(stamps),
        32 => scan_oldest_fixed::<32>(stamps),
        _ => scan_oldest_dyn(stamps),
    }
}

/// A fill slot remembered from a miss scan: where a subsequent
/// [`AssocArray::install_reserved`] of the same key will land. The slot
/// stays valid only while no other operation touches the array in
/// between (the page-walk window for TLBs, the probe-to-fill window of
/// one demand reference for caches).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reserved {
    way: u32,
}

/// The token [`AssocArray::probe`] returns for an absent key: the set's
/// first invalid way (`u32::MAX` when the set is full). A follow-up
/// [`AssocArray::install`] of the same key lands there, or picks the
/// policy's victim on a full set, exactly as [`AssocArray::insert`]
/// would. The token stays valid only while nothing mutates the array
/// between the probe and the install.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Absent {
    first_invalid: u32,
}

impl AssocArray {
    pub(crate) fn new(sets: usize, ways: usize, policy: ReplacementPolicy, rng_seed: u64) -> Self {
        assert!(sets > 0 && ways > 0, "need at least one set and way");
        if policy == ReplacementPolicy::TreePlru {
            assert!(
                ways.is_power_of_two(),
                "tree-PLRU requires a power-of-two way count"
            );
        }
        let n = sets * ways;
        let stamped = matches!(policy, ReplacementPolicy::Lru | ReplacementPolicy::Fifo);
        Self {
            sets,
            ways,
            tags: vec![TAG_INVALID; n],
            flags: vec![0; n],
            policy,
            stamps: if stamped { vec![0; n] } else { Vec::new() },
            plru: if policy == ReplacementPolicy::TreePlru {
                vec![false; sets * (ways - 1)]
            } else {
                Vec::new()
            },
            clock: 0,
            rng: rng_seed,
            hint: vec![0; sets],
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                u64::MAX
            },
        }
    }

    #[inline]
    pub(crate) fn set_of(&self, key: u64) -> usize {
        // Power-of-two set counts (every shipped config) index with a
        // mask; the modulo fallback keeps arbitrary geometries working.
        if self.set_mask != u64::MAX {
            (key & self.set_mask) as usize
        } else {
            (key % self.sets as u64) as usize
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: u32) -> usize {
        set * self.ways + way as usize
    }

    /// Find `key` in its set and update recency. Returns the way on a hit.
    #[inline]
    pub(crate) fn lookup(&mut self, key: u64) -> Option<u32> {
        let set = self.set_of(key);
        let base = set * self.ways;
        // Fast path: the way that hit last time.
        let h = self.hint[set];
        let hi = base + h as usize;
        if (h as usize) < self.ways && self.tags[hi] == key {
            self.touch(set, h);
            return Some(h);
        }
        let (found, _) = scan_tags(&self.tags[base..base + self.ways], key);
        if found == u32::MAX {
            return None;
        }
        self.hint[set] = found;
        self.touch(set, found);
        Some(found)
    }

    /// One-pass demand access: locate `key` (hint first), touch recency,
    /// consume the prefetched flag, and optionally mark dirty — the fused
    /// equivalent of `lookup` + `flags_of` + flag updates,
    /// reading each entry's metadata once. Returns `(way, was_prefetched)`
    /// on a hit.
    #[inline]
    pub(crate) fn access_demand(&mut self, key: u64, set_dirty: bool) -> Option<(u32, bool)> {
        let set = self.set_of(key);
        let base = set * self.ways;
        let h = self.hint[set];
        let hi = base + h as usize;
        let way = if (h as usize) < self.ways && self.tags[hi] == key {
            h
        } else {
            let (found, _) = scan_tags(&self.tags[base..base + self.ways], key);
            if found == u32::MAX {
                return None;
            }
            self.hint[set] = found;
            found
        };
        let (was_prefetched, _) = self.demand_touch(set, way, set_dirty);
        Some((way, was_prefetched))
    }

    /// The state updates of a demand hit at `(set, way)`: consume the
    /// prefetched flag, optionally mark dirty, touch recency. Returns
    /// whether the line was a fresh prefetch fill, and whether it is
    /// dirty *after* this touch (so callers can arm repeat fast paths
    /// without re-reading the flags).
    #[inline]
    fn demand_touch(&mut self, set: usize, way: u32, set_dirty: bool) -> (bool, bool) {
        let i = set * self.ways + way as usize;
        let was_prefetched = self.flags[i] & FLAG_PREFETCHED != 0;
        let mut f = self.flags[i] & !FLAG_PREFETCHED;
        if set_dirty {
            f |= FLAG_DIRTY;
        }
        self.flags[i] = f;
        self.touch(set, way);
        (was_prefetched, f & FLAG_DIRTY != 0)
    }

    /// [`AssocArray::access_demand`] fused with victim preselection: on a
    /// miss, additionally return the slot a subsequent
    /// [`AssocArray::install_reserved`] of the same key will fill — the
    /// single miss scan serves both the probe and the fill. `None` is
    /// returned for policies whose victim choice must happen at fill time
    /// (random replacement advances its RNG when evicting); callers then
    /// fall back to a plain [`AssocArray::insert`].
    #[inline]
    pub(crate) fn access_demand_reserving(
        &mut self,
        key: u64,
        set_dirty: bool,
    ) -> (Option<(u32, bool, bool)>, Option<Reserved>) {
        let set = self.set_of(key);
        let base = set * self.ways;
        let h = self.hint[set];
        let hi = base + h as usize;
        if (h as usize) < self.ways && self.tags[hi] == key {
            let (was_prefetched, dirty) = self.demand_touch(set, h, set_dirty);
            return (Some((h, was_prefetched, dirty)), None);
        }
        let (found, first_invalid) = scan_tags(&self.tags[base..base + self.ways], key);
        if found != u32::MAX {
            self.hint[set] = found;
            let (was_prefetched, dirty) = self.demand_touch(set, found, set_dirty);
            return (Some((found, was_prefetched, dirty)), None);
        }
        // Miss. Preselect the fill slot for the stamped policies: the
        // first invalid way, else the oldest stamp (the victim scan only
        // runs on a full set, where every stamp participates — identical
        // to the fused first-strict-minimum tracking it replaces).
        let reserved = if matches!(
            self.policy,
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo
        ) {
            Some(Reserved {
                way: if first_invalid != u32::MAX {
                    first_invalid
                } else {
                    scan_oldest(&self.stamps[base..base + self.ways])
                },
            })
        } else {
            None
        };
        (None, reserved)
    }

    /// Install `key` at a slot remembered by
    /// [`AssocArray::access_demand_reserving`] for the *same* key with no
    /// intervening operations on this array. Behaves exactly like
    /// [`AssocArray::insert`] (which would rediscover the same slot), with
    /// the redundant scan skipped; the key is known absent, so the
    /// `AlreadyPresent` arm cannot apply.
    #[inline]
    pub(crate) fn install_reserved(
        &mut self,
        key: u64,
        new_flags: u8,
        r: Reserved,
    ) -> InsertOutcome {
        // Installing the sentinel would create a phantom "empty" way that
        // is silently lost to every later scan; catch it on both install
        // paths (see `insert` for the same guard).
        debug_assert_ne!(key, TAG_INVALID, "key collides with the empty-way sentinel");
        debug_assert!(
            self.peek(key).is_none(),
            "reserved install of a present key"
        );
        let set = self.set_of(key);
        self.place(set, r.way, key, new_flags)
    }

    /// Write `key` into `(set, way)` as a fresh fill: tag, flags, fill
    /// recency and last-hit hint. Reports the way as `Installed` when it
    /// was empty, else as `Evicted` with the previous occupant.
    #[inline]
    fn place(&mut self, set: usize, way: u32, key: u64, new_flags: u8) -> InsertOutcome {
        let i = self.idx(set, way);
        let old_tag = self.tags[i];
        let old_flags = self.flags[i];
        self.tags[i] = key;
        self.flags[i] = FLAG_VALID | new_flags;
        self.stamp_fill(set, way);
        self.hint[set] = way;
        if old_tag == TAG_INVALID {
            InsertOutcome::Installed(way)
        } else {
            InsertOutcome::Evicted {
                way,
                old_tag,
                old_flags,
            }
        }
    }

    /// Locate `key` without changing any state, last-hit way first:
    /// `Ok(way)` when resident, else the [`Absent`] token a follow-up
    /// [`AssocArray::install`] of the key fills through. One tag scan
    /// serves both the residency check and the placement.
    #[inline]
    pub(crate) fn probe(&self, key: u64) -> Result<u32, Absent> {
        let set = self.set_of(key);
        let base = set * self.ways;
        let h = self.hint[set];
        if (h as usize) < self.ways && self.tags[base + h as usize] == key {
            return Ok(h);
        }
        let (found, first_invalid) = scan_tags(&self.tags[base..base + self.ways], key);
        if found != u32::MAX {
            Ok(found)
        } else {
            Err(Absent { first_invalid })
        }
    }

    /// Install `key`, which [`AssocArray::probe`] found absent with no
    /// intervening operations on this array, into the slot the probe
    /// remembered: the first invalid way, else the policy's victim (an
    /// LRU/FIFO oldest-stamp scan, the tree-PLRU walk, or one draw of the
    /// replacement RNG).
    #[inline]
    pub(crate) fn install(&mut self, key: u64, new_flags: u8, absent: Absent) -> InsertOutcome {
        debug_assert_ne!(key, TAG_INVALID, "key collides with the empty-way sentinel");
        debug_assert!(self.peek(key).is_none(), "install of a present key");
        let set = self.set_of(key);
        let way = if absent.first_invalid != u32::MAX {
            debug_assert_eq!(
                self.tags[self.idx(set, absent.first_invalid)],
                TAG_INVALID,
                "stale absent token"
            );
            absent.first_invalid
        } else {
            self.victim(set)
        };
        self.place(set, way, key, new_flags)
    }

    /// Find `key` without changing any state.
    #[inline]
    pub(crate) fn peek(&self, key: u64) -> Option<u32> {
        let set = self.set_of(key);
        let base = set * self.ways;
        let (found, _) = scan_tags(&self.tags[base..base + self.ways], key);
        (found != u32::MAX).then_some(found)
    }

    /// Update recency state for a touch (hit) of `way`.
    #[inline]
    fn touch(&mut self, set: usize, way: u32) {
        match self.policy {
            ReplacementPolicy::Lru => {
                self.clock += 1;
                debug_assert!(
                    self.clock < 1 << 58,
                    "stamp would overflow the u64 scan key"
                );
                let i = self.idx(set, way);
                self.stamps[i] = self.clock;
            }
            ReplacementPolicy::Fifo | ReplacementPolicy::Random => {}
            ReplacementPolicy::TreePlru => self.touch_plru(set, way),
        }
    }

    /// Update recency state for a fill of `way`.
    #[inline]
    fn stamp_fill(&mut self, set: usize, way: u32) {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                self.clock += 1;
                debug_assert!(
                    self.clock < 1 << 58,
                    "stamp would overflow the u64 scan key"
                );
                let i = self.idx(set, way);
                self.stamps[i] = self.clock;
            }
            ReplacementPolicy::Random => {}
            ReplacementPolicy::TreePlru => self.touch_plru(set, way),
        }
    }

    fn touch_plru(&mut self, set: usize, way: u32) {
        if self.ways <= 1 {
            return;
        }
        let bits = &mut self.plru[set * (self.ways - 1)..(set + 1) * (self.ways - 1)];
        let mut node = bits.len() + way as usize;
        while node > 0 {
            let parent = (node - 1) / 2;
            let went_left = 2 * parent + 1 == node;
            bits[parent] = went_left;
            node = parent;
        }
    }

    /// The way a fill of a full `set` evicts. Stamped policies take the
    /// first oldest-stamp way (every stamp participates, the set being
    /// full); random replacement draws its RNG once; tree-PLRU follows
    /// its bits.
    #[inline]
    fn victim(&mut self, set: usize) -> u32 {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                let base = set * self.ways;
                scan_oldest(&self.stamps[base..base + self.ways])
            }
            ReplacementPolicy::Random => {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                (self.rng % self.ways as u64) as u32
            }
            ReplacementPolicy::TreePlru => {
                if self.ways == 1 {
                    return 0;
                }
                let bits = &self.plru[set * (self.ways - 1)..(set + 1) * (self.ways - 1)];
                let mut node = 0usize;
                while node < bits.len() {
                    node = 2 * node + 1 + usize::from(bits[node]);
                }
                (node - bits.len()) as u32
            }
        }
    }

    /// Insert `key` with `new_flags` (FLAG_VALID is implied). If the key
    /// is already present, nothing changes except recency and the flags
    /// are OR-ed in.
    pub(crate) fn insert(&mut self, key: u64, new_flags: u8) -> InsertOutcome {
        debug_assert_ne!(key, TAG_INVALID, "key collides with the empty-way sentinel");
        match self.probe(key) {
            Ok(way) => {
                let set = self.set_of(key);
                let i = self.idx(set, way);
                self.flags[i] |= new_flags;
                self.stamp_fill(set, way);
                InsertOutcome::AlreadyPresent(way)
            }
            Err(absent) => self.install(key, new_flags, absent),
        }
    }

    /// Re-touch `(set, way)` exactly as a [`Self::lookup`] hit of that way
    /// would: recency update plus the last-hit hint. Used by the pipeline's
    /// repeat-line fast path, which already knows where the line lives and
    /// skips the tag scan.
    #[inline]
    pub(crate) fn retouch(&mut self, set: usize, way: u32) {
        self.hint[set] = way;
        self.touch(set, way);
    }

    /// Read the flags of `(set, way)`.
    #[inline]
    pub(crate) fn flags_of(&self, set: usize, way: u32) -> u8 {
        self.flags[set * self.ways + way as usize]
    }

    /// The last-hit way recorded for `set`. Right after a [`Self::lookup`]
    /// hit this is the way that hit, which the pipeline's repeat-line fast
    /// path captures instead of re-scanning the set.
    #[inline]
    pub(crate) fn hint_of(&self, set: usize) -> u32 {
        self.hint[set]
    }

    /// Read the tag of `(set, way)` (valid bit not checked).
    #[inline]
    pub(crate) fn tag_of(&self, set: usize, way: u32) -> u64 {
        self.tags[set * self.ways + way as usize]
    }

    /// OR flag bits into `(set, way)`.
    #[inline]
    pub(crate) fn set_flags(&mut self, set: usize, way: u32, bits: u8) {
        self.flags[set * self.ways + way as usize] |= bits;
    }

    /// Number of valid entries.
    pub(crate) fn valid_entries(&self) -> usize {
        self.flags.iter().filter(|&&f| f & FLAG_VALID != 0).count()
    }

    /// Invalidate everything.
    pub(crate) fn clear(&mut self) {
        self.tags.fill(TAG_INVALID);
        self.flags.fill(0);
        self.hint.fill(0);
    }

    /// Compare against `base` under the tag isomorphism `map` — the
    /// fast-forward verification primitive. Two states are equivalent when
    /// every *future* operation behaves identically modulo `map`:
    ///
    /// * per set, tags and flags compare positionally (`map`-ped tags for
    ///   valid entries; invalid ways hold the sentinel on both sides) with
    ///   LRU/FIFO stamps compared by pairwise *order* (including ties) —
    ///   victim scans and their tie-breaks consume only the relative
    ///   order, never the absolute clock values;
    /// * a set that fails positionally may still match **way-agnostically**
    ///   for the stamped policies (LRU/FIFO) when both sets are full with
    ///   strictly ordered stamps: the recency-ranked `(map(tag), flags)`
    ///   sequences must be equal. Way indices are immaterial there — hits
    ///   locate by tag, victims by strict-minimum stamp, and the
    ///   first-invalid-way rule cannot fire on a full set. This absorbs
    ///   way-rotation phase: a level receiving fewer than `ways` fills per
    ///   set per period rotates its fill way chunk-to-chunk while the
    ///   resident *content* is already periodic;
    /// * PLRU bits and the replacement RNG compare exactly (positional
    ///   policies never take the way-agnostic path: `plru` is empty for
    ///   stamped policies and vice versa) — random replacement therefore
    ///   only matches when the RNG took zero draws between the states;
    /// * the last-hit way `hint` is excluded: it is a scan shortcut and
    ///   never changes an access outcome, only how the way is found;
    /// * the access clock itself is excluded: it differs between any two
    ///   points in time, and no decision reads it directly.
    pub(crate) fn ff_shift_eq<F: Fn(u64) -> u64>(&self, base: &AssocArray, map: F) -> bool {
        if self.sets != base.sets || self.ways != base.ways || self.policy != base.policy {
            return false;
        }
        if self.plru != base.plru || self.rng != base.rng {
            return false;
        }
        if self.stamps.len() != base.stamps.len() {
            return false;
        }
        for set in 0..self.sets {
            if !self.set_eq_positional(base, set, &map) && !self.set_eq_recency(base, set, &map) {
                return false;
            }
        }
        true
    }

    /// Positional set compare for [`AssocArray::ff_shift_eq`].
    fn set_eq_positional<F: Fn(u64) -> u64>(&self, base: &AssocArray, set: usize, map: &F) -> bool {
        let b = set * self.ways;
        for i in b..b + self.ways {
            if self.flags[i] != base.flags[i] {
                return false;
            }
            let want = if base.flags[i] & FLAG_VALID != 0 {
                map(base.tags[i])
            } else {
                base.tags[i]
            };
            if self.tags[i] != want {
                return false;
            }
        }
        if self.stamps.is_empty() {
            return true;
        }
        let cur = &self.stamps[b..b + self.ways];
        let old = &base.stamps[b..b + self.ways];
        for i in 0..self.ways {
            for j in i + 1..self.ways {
                if (cur[i] < cur[j]) != (old[i] < old[j]) || (cur[i] > cur[j]) != (old[i] > old[j])
                {
                    return false;
                }
            }
        }
        true
    }

    /// Way-agnostic set compare for [`AssocArray::ff_shift_eq`]: both
    /// sets full, stamps strictly ordered, recency-ranked `(map(tag),
    /// flags)` sequences equal.
    fn set_eq_recency<F: Fn(u64) -> u64>(&self, base: &AssocArray, set: usize, map: &F) -> bool {
        if self.stamps.is_empty() {
            return false;
        }
        let b = set * self.ways;
        if (b..b + self.ways)
            .any(|i| self.flags[i] & FLAG_VALID == 0 || base.flags[i] & FLAG_VALID == 0)
        {
            return false;
        }
        let mut cur_ways: Vec<usize> = (0..self.ways).collect();
        let mut base_ways: Vec<usize> = (0..self.ways).collect();
        cur_ways.sort_unstable_by_key(|&w| self.stamps[b + w]);
        base_ways.sort_unstable_by_key(|&w| base.stamps[b + w]);
        for r in 0..self.ways {
            let (cw, bw) = (b + cur_ways[r], b + base_ways[r]);
            // Strict stamp order (a tie would make the rank ambiguous).
            if r + 1 < self.ways
                && (self.stamps[b + cur_ways[r]] == self.stamps[b + cur_ways[r + 1]]
                    || base.stamps[b + base_ways[r]] == base.stamps[b + base_ways[r + 1]])
            {
                return false;
            }
            if self.flags[cw] != base.flags[bw] || self.tags[cw] != map(base.tags[bw]) {
                return false;
            }
        }
        true
    }

    /// Does `ok` hold for every valid tag? (Fast-forward uses this to
    /// prove a frozen level's resident lines cannot collide with the
    /// remaining footprint of an op.)
    pub(crate) fn ff_all_tags<F: FnMut(u64) -> bool>(&self, mut ok: F) -> bool {
        self.tags
            .iter()
            .zip(&self.flags)
            .all(|(&t, &f)| f & FLAG_VALID == 0 || ok(t))
    }

    /// Apply the tag isomorphism `map` to every valid entry (the
    /// fast-forward state advance). Recency state is untouched: stamps,
    /// PLRU bits, hints and the RNG are position-based and `map` moves
    /// tags, not ways.
    pub(crate) fn ff_shift_tags<F: Fn(u64) -> u64>(&mut self, map: F) {
        for i in 0..self.tags.len() {
            if self.flags[i] & FLAG_VALID != 0 {
                self.tags[i] = map(self.tags[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn lookup_miss_then_insert_then_hit() {
        let mut a = AssocArray::new(4, 2, ReplacementPolicy::Lru, 1);
        assert_eq!(a.lookup(13), None);
        assert!(matches!(a.insert(13, 0), InsertOutcome::Installed(_)));
        assert!(a.lookup(13).is_some());
        assert_eq!(a.valid_entries(), 1);
    }

    /// The top line of the address space hashes to `u64::MAX` for 1-byte
    /// lines (see `membound_trace::MemAccess::lines` and its
    /// end-of-address-space clamp test); storing it would alias the
    /// empty-way sentinel and leak the way. Both install paths must
    /// refuse it in debug builds.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "empty-way sentinel"))]
    fn insert_rejects_the_sentinel_key() {
        if !cfg!(debug_assertions) {
            panic!("empty-way sentinel"); // keep the expectation meaningful
        }
        let mut a = AssocArray::new(4, 2, ReplacementPolicy::Lru, 1);
        let _ = a.insert(TAG_INVALID, 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "empty-way sentinel"))]
    fn install_reserved_rejects_the_sentinel_key() {
        if !cfg!(debug_assertions) {
            panic!("empty-way sentinel");
        }
        let mut a = AssocArray::new(4, 2, ReplacementPolicy::Lru, 1);
        // Reserve a slot through the normal miss flow, then try to land
        // the sentinel in it: the guard must fire before any state
        // changes, exactly as on the fused fast path.
        let (hit, reserved) = a.access_demand_reserving(7, false);
        assert!(hit.is_none());
        let r = reserved.expect("LRU reserves a victim on miss");
        let _ = a.install_reserved(TAG_INVALID, 0, r);
    }

    #[test]
    fn hint_path_gives_same_answer_as_scan() {
        let mut a = AssocArray::new(1, 4, ReplacementPolicy::Lru, 1);
        for k in 0..4u64 {
            a.insert(k, 0);
        }
        // Alternate between two keys; both paths must keep hitting.
        for _ in 0..10 {
            assert!(a.lookup(1).is_some());
            assert!(a.lookup(1).is_some()); // hint fast path
            assert!(a.lookup(3).is_some());
        }
        // LRU order reflects the touches: 0 and 2 are cold.
        let out = a.insert(9, 0);
        match out {
            InsertOutcome::Evicted { old_tag, .. } => assert!(old_tag == 0 || old_tag == 2),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn insert_of_present_key_ors_flags() {
        let mut a = AssocArray::new(2, 2, ReplacementPolicy::Lru, 1);
        a.insert(5, 0);
        assert!(matches!(
            a.insert(5, FLAG_DIRTY),
            InsertOutcome::AlreadyPresent(_)
        ));
        let w = a.peek(5).unwrap();
        assert_ne!(a.flags_of(a.set_of(5), w) & FLAG_DIRTY, 0);
        assert_eq!(a.valid_entries(), 1);
    }

    #[test]
    fn eviction_returns_old_state() {
        let mut a = AssocArray::new(1, 1, ReplacementPolicy::Lru, 1);
        a.insert(7, FLAG_DIRTY);
        match a.insert(8, 0) {
            InsertOutcome::Evicted {
                old_tag, old_flags, ..
            } => {
                assert_eq!(old_tag, 7);
                assert_ne!(old_flags & FLAG_DIRTY, 0);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut a = AssocArray::new(1, 4, ReplacementPolicy::Fifo, 1);
        for k in 0..4u64 {
            a.insert(k, 0);
        }
        a.lookup(0);
        a.lookup(0);
        match a.insert(9, 0) {
            InsertOutcome::Evicted { old_tag, .. } => {
                assert_eq!(old_tag, 0, "FIFO must evict the oldest fill")
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut a = AssocArray::new(1, 4, ReplacementPolicy::Lru, 1);
        for k in 0..4u64 {
            a.insert(k, 0);
        }
        a.lookup(0); // 1 is now coldest
        match a.insert(9, 0) {
            InsertOutcome::Evicted { old_tag, .. } => assert_eq!(old_tag, 1),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn random_is_deterministic_and_covers_all_ways() {
        let mut seen = std::collections::HashSet::new();
        let mut a = AssocArray::new(1, 4, ReplacementPolicy::Random, 7);
        let mut b = AssocArray::new(1, 4, ReplacementPolicy::Random, 7);
        for k in 0..4u64 {
            a.insert(k, 0);
            b.insert(k, 0);
        }
        for k in 100..356u64 {
            let va = a.insert(k, 0);
            let vb = b.insert(k, 0);
            assert_eq!(va, vb, "same seed must give same victims");
            if let InsertOutcome::Evicted { way, .. } = va {
                seen.insert(way);
            }
        }
        assert_eq!(seen.len(), 4, "all ways should eventually be chosen");
    }

    #[test]
    fn plru_victim_avoids_recently_touched() {
        let mut a = AssocArray::new(1, 4, ReplacementPolicy::TreePlru, 1);
        for k in 0..4u64 {
            a.insert(k, 0);
        }
        a.lookup(3);
        if let InsertOutcome::Evicted { old_tag, .. } = a.insert(9, 0) {
            assert_ne!(old_tag, 3, "PLRU must not evict the hottest way");
        } else {
            panic!("expected eviction");
        }
    }

    #[test]
    fn plru_rotates_victims_under_round_robin_fills() {
        let mut a = AssocArray::new(1, 8, ReplacementPolicy::TreePlru, 1);
        for k in 0..8u64 {
            a.insert(k, 0);
        }
        let mut ways = std::collections::HashSet::new();
        for k in 100..108u64 {
            if let InsertOutcome::Evicted { way, .. } = a.insert(k, 0) {
                ways.insert(way);
            }
        }
        assert_eq!(ways.len(), 8, "PLRU round-robin should rotate victims");
    }

    #[test]
    fn single_way_always_evicts_way_zero() {
        for policy in ReplacementPolicy::all() {
            let mut a = AssocArray::new(2, 1, policy, 1);
            a.insert(0, 0);
            match a.insert(2, 0) {
                InsertOutcome::Evicted { way, .. } => assert_eq!(way, 0, "{policy}"),
                other => panic!("{policy}: expected eviction, got {other:?}"),
            }
        }
    }

    /// The counters a cache level derives from fill outcomes.
    #[derive(Debug, Default, PartialEq)]
    struct Tally {
        fills: u64,
        prefetch_fills: u64,
        evictions: u64,
        dirty_evictions: u64,
    }

    impl Tally {
        fn fill(&mut self, outcome: InsertOutcome, prefetched: bool) {
            match outcome {
                InsertOutcome::AlreadyPresent(_) => return,
                InsertOutcome::Installed(_) => {}
                InsertOutcome::Evicted { old_flags, .. } => {
                    self.evictions += 1;
                    self.dirty_evictions += u64::from(old_flags & FLAG_DIRTY != 0);
                }
            }
            self.fills += 1;
            self.prefetch_fills += u64::from(prefetched);
        }
    }

    /// The placement `insert` made before it was built from `probe` +
    /// `install`, written out: a full scan of the set for the key, then
    /// the first invalid way, else the policy's victim (first strict
    /// minimum stamp, one xorshift draw, or the tree-PLRU walk).
    fn full_scan_insert(a: &mut AssocArray, key: u64, new_flags: u8) -> InsertOutcome {
        let set = a.set_of(key);
        let base = set * a.ways;
        let row = base..base + a.ways;
        if let Some(w) = a.tags[row.clone()].iter().position(|&t| t == key) {
            a.flags[base + w] |= new_flags;
            a.stamp_fill(set, w as u32);
            return InsertOutcome::AlreadyPresent(w as u32);
        }
        let empty = a.tags[row].iter().position(|&t| t == TAG_INVALID);
        let w = match (empty, a.policy) {
            (Some(w), _) => w,
            (None, ReplacementPolicy::Lru | ReplacementPolicy::Fifo) => {
                let mut best = 0;
                for w in 1..a.ways {
                    if a.stamps[base + w] < a.stamps[base + best] {
                        best = w;
                    }
                }
                best
            }
            (None, ReplacementPolicy::Random) => {
                a.rng ^= a.rng << 13;
                a.rng ^= a.rng >> 7;
                a.rng ^= a.rng << 17;
                (a.rng % a.ways as u64) as usize
            }
            (None, ReplacementPolicy::TreePlru) => {
                let bits = &a.plru[set * (a.ways - 1)..(set + 1) * (a.ways - 1)];
                let mut node = 0;
                while node < bits.len() {
                    node = 2 * node + 1 + usize::from(bits[node]);
                }
                node - bits.len()
            }
        };
        let i = base + w;
        let (old_tag, old_flags) = (a.tags[i], a.flags[i]);
        a.tags[i] = key;
        a.flags[i] = FLAG_VALID | new_flags;
        a.stamp_fill(set, w as u32);
        a.hint[set] = w as u32;
        if empty.is_some() {
            InsertOutcome::Installed(w as u32)
        } else {
            InsertOutcome::Evicted {
                way: w as u32,
                old_tag,
                old_flags,
            }
        }
    }

    fn same_state(a: &AssocArray, b: &AssocArray) -> bool {
        a.tags == b.tags
            && a.flags == b.flags
            && a.stamps == b.stamps
            && a.plru == b.plru
            && a.clock == b.clock
            && a.rng == b.rng
            && a.hint == b.hint
    }

    proptest! {
        /// The fused prefetch fill (`probe`, then `install` through its
        /// token) and `insert` leave exactly the state and counters of the
        /// two-scan path they replace (`peek`, then a full-scan insert),
        /// under every replacement policy and any mix of probes, demand
        /// touches, demand fills and prefetch fills.
        #[test]
        fn probe_install_matches_the_two_scan_path(
            steps in collection::vec((0u8..4, 0u64..1 << 16, any::<bool>()), 1..300),
            sets_log in 0u32..3,
            ways_log in 0u32..4,
            seed in 1u64..1 << 32,
        ) {
            let (sets, ways) = (1usize << sets_log, 1usize << ways_log);
            let keys = (sets * ways * 3) as u64;
            for policy in ReplacementPolicy::all() {
                let mut old = AssocArray::new(sets, ways, policy, seed);
                let mut new = old.clone();
                let (mut old_tally, mut new_tally) = (Tally::default(), Tally::default());
                for &(op, k, dirty) in &steps {
                    let key = k % keys;
                    let flags = if dirty { FLAG_DIRTY } else { 0 };
                    // 0: probe; 1: demand touch, filling on a miss;
                    // 2: prefetch fill; 3: plain fill (a writeback).
                    let fill = match op {
                        0 => {
                            prop_assert_eq!(old.peek(key), new.probe(key).ok());
                            None
                        }
                        1 => {
                            let hit = old.access_demand(key, dirty);
                            prop_assert_eq!(hit, new.access_demand(key, dirty));
                            hit.is_none().then_some(flags)
                        }
                        2 => {
                            if old.peek(key).is_none() {
                                let o = full_scan_insert(&mut old, key, FLAG_PREFETCHED);
                                old_tally.fill(o, true);
                            }
                            if let Err(slot) = new.probe(key) {
                                new_tally.fill(new.install(key, FLAG_PREFETCHED, slot), true);
                            }
                            None
                        }
                        _ => Some(flags),
                    };
                    if let Some(flags) = fill {
                        let o = full_scan_insert(&mut old, key, flags);
                        let n = new.insert(key, flags);
                        prop_assert_eq!(o, n);
                        old_tally.fill(o, false);
                        new_tally.fill(n, false);
                    }
                    prop_assert!(
                        same_state(&old, &new),
                        "{policy}: state diverged at key {key}, op {op}"
                    );
                    prop_assert_eq!(&old_tally, &new_tally);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two_ways() {
        let _ = AssocArray::new(1, 6, ReplacementPolicy::TreePlru, 1);
    }

    #[test]
    fn clear_resets_validity() {
        let mut a = AssocArray::new(2, 2, ReplacementPolicy::Random, 3);
        a.insert(1, 0);
        a.insert(2, 0);
        a.clear();
        assert_eq!(a.valid_entries(), 0);
        assert_eq!(a.lookup(1), None);
    }
}
