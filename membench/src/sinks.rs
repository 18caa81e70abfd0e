//! Benchmark-owned trace sinks: one counts what a kernel emits, one
//! captures a prefix of its per-reference address stream for replay
//! through single simulator components.

use membound_trace::{IterCost, MemAccess, TraceSink, PROBE_LINE_BYTES};

/// FNV-1a step over one 64-bit word.
fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Counts emitted references and strided batches, and fingerprints the
/// exact call sequence so that two cells emitting identical streams can
/// be recognised (the engine simulates such cells once).
#[derive(Debug, Clone)]
pub struct CountingSink {
    pub refs: u64,
    pub strided_batches: u64,
    pub fingerprint: u64,
}

impl Default for CountingSink {
    fn default() -> Self {
        Self {
            refs: 0,
            strided_batches: 0,
            fingerprint: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl CountingSink {
    fn mix(&mut self, words: &[u64]) {
        for &w in words {
            self.fingerprint = fnv(self.fingerprint, w);
        }
    }
}

/// Line probes a unit-stride run over `[addr, addr + len)` expands to.
fn lines_touched(addr: u64, len: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    let last = addr.saturating_add(len - 1);
    last / PROBE_LINE_BYTES - addr / PROBE_LINE_BYTES + 1
}

impl TraceSink for CountingSink {
    fn access(&mut self, access: MemAccess) {
        self.refs += 1;
        self.mix(&[
            1,
            access.addr,
            u64::from(access.size),
            u64::from(access.kind.is_write()),
        ]);
    }

    fn compute(&mut self, cost: IterCost, iters: u64) {
        self.mix(&[
            2,
            iters,
            u64::from(cost.int_ops),
            u64::from(cost.flops),
            u64::from(cost.loads),
            u64::from(cost.stores),
            u64::from(cost.elem_bytes),
            u64::from(cost.vectorizable),
        ]);
    }

    fn barrier(&mut self) {
        self.mix(&[3]);
    }

    fn access_range(&mut self, addr: u64, len: u64, write: bool) {
        self.refs += lines_touched(addr, len);
        self.mix(&[4, addr, len, u64::from(write)]);
    }

    fn access_strided(
        &mut self,
        base: u64,
        stride_bytes: i64,
        count: u64,
        access_size: u32,
        write: bool,
    ) {
        self.refs += count;
        self.strided_batches += 1;
        self.mix(&[
            5,
            base,
            stride_bytes as u64,
            count,
            u64::from(access_size),
            u64::from(write),
        ]);
    }

    fn access_strided_rmw(&mut self, base: u64, stride_bytes: i64, count: u64, access_size: u32) {
        self.refs += 2 * count;
        self.strided_batches += 1;
        self.mix(&[6, base, stride_bytes as u64, count, u64::from(access_size)]);
    }
}

/// Captures the first `cap` per-reference probes (ranges split per line
/// and batches per element, exactly as the trait defaults expand them)
/// and ignores the rest of the stream.
#[derive(Debug)]
pub struct CaptureSink {
    pub refs: Vec<(u64, bool)>,
    cap: usize,
}

impl CaptureSink {
    pub fn new(cap: usize) -> Self {
        Self {
            refs: Vec::with_capacity(cap),
            cap,
        }
    }

    fn full(&self) -> bool {
        self.refs.len() >= self.cap
    }
}

impl TraceSink for CaptureSink {
    fn access(&mut self, access: MemAccess) {
        if !self.full() {
            self.refs.push((access.addr, access.kind.is_write()));
        }
    }

    fn access_range(&mut self, addr: u64, len: u64, write: bool) {
        let end = addr.saturating_add(len);
        let mut cur = addr;
        while cur < end && !self.full() {
            self.refs.push((cur, write));
            cur = (cur | (PROBE_LINE_BYTES - 1)).saturating_add(1);
        }
    }

    fn access_strided(
        &mut self,
        base: u64,
        stride_bytes: i64,
        count: u64,
        access_size: u32,
        write: bool,
    ) {
        let room = (self.cap - self.refs.len().min(self.cap)) as u64;
        for i in 0..count.min(room) {
            let addr = membound_trace::strided_addr(base, stride_bytes, i);
            self.refs.push((addr, write));
        }
        let _ = access_size;
    }

    fn access_strided_rmw(&mut self, base: u64, stride_bytes: i64, count: u64, access_size: u32) {
        let room = (self.cap - self.refs.len().min(self.cap)) as u64;
        for i in 0..count.min(room.div_ceil(2)) {
            let addr = membound_trace::strided_addr(base, stride_bytes, i);
            self.refs.push((addr, false));
            self.refs.push((addr, true));
        }
        let _ = access_size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_counts_one_ref_per_line_touched() {
        let mut s = CountingSink::default();
        s.access_range(60, 8, false); // straddles two lines
        s.access_range(128, 64, true);
        s.access_range(0, 0, false);
        assert_eq!(s.refs, 3);
    }

    #[test]
    fn equal_streams_share_a_fingerprint() {
        let emit = |s: &mut CountingSink, stride| {
            s.access_strided(0, stride, 10, 8, false);
            s.load(64, 8);
        };
        let (mut a, mut b, mut c) = Default::default();
        emit(&mut a, 8);
        emit(&mut b, 8);
        emit(&mut c, 16);
        let (a, b, c): (CountingSink, CountingSink, CountingSink) = (a, b, c);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_eq!((a.refs, a.strided_batches), (11, 1));
    }

    #[test]
    fn compute_costs_enter_the_fingerprint() {
        let mut a = CountingSink::default();
        let mut b = CountingSink::default();
        a.compute(IterCost::new(8, 2), 10);
        b.compute(IterCost::new(3, 2), 10);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn capture_stops_at_its_cap() {
        let mut s = CaptureSink::new(5);
        s.access_strided_rmw(0, 4096, 100, 8);
        s.access_range(0, 1 << 20, false);
        assert_eq!(s.refs.len(), 6);
        assert_eq!(s.refs[..2], [(0, false), (0, true)]);
    }
}
