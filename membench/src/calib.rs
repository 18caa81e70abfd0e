//! Host-speed probe: a fixed kernel owned by the benchmark, timed
//! between the measured units of a run, so that the run can state its
//! times at a nominal host speed. On a shared virtual machine the
//! host's speed drifts by up to ~1.6x in phases of seconds to minutes
//! (CPU time drifts with wall time, so this is not steal time); raw
//! times of runs made minutes apart then differ by more than any useful
//! regression bound, while their ratio to the probe holds steadier.
//!
//! The kernel is a set-associative LRU cache model driven by a mix of
//! strided and pseudo-random line addresses: branchy code over a 1.5 MiB
//! table, larger than a host core's private caches, like the simulator's
//! own cache models. It calls nothing in the program, so no change to
//! the program can move it.

use crate::report::median;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

const SETS: usize = 1 << 14;
const WAYS: usize = 8;
/// Lines the pseudo-random accesses (one in four) and the strided ones
/// range over: both several times the table's capacity.
const RANDOM_LINES: u64 = 1 << 18;
const STRIDED_LINES: u64 = 1 << 17;
/// Accesses per kernel run (about 4 ms on a 2 GHz x86-64 core).
const ACCESSES: u64 = 1 << 18;
/// Kernel runs per probe thread; it keeps the fastest, so a single
/// preemption does not distort it.
const RUNS: usize = 3;
/// Probe time that defines the nominal host speed.
pub const NOMINAL_PROBE_S: f64 = 0.004;

/// The cache model's tags and last-use times, one row per set.
struct Table {
    tags: Vec<[u64; WAYS]>,
    used: Vec<[u32; WAYS]>,
}

impl Table {
    fn new() -> Self {
        Self {
            tags: vec![[u64::MAX; WAYS]; SETS],
            used: vec![[0; WAYS]; SETS],
        }
    }

    /// Hits of one kernel run from an empty table (a fixed number; the
    /// run's time is what matters).
    fn run(&mut self, accesses: u64) -> u64 {
        self.tags.fill([u64::MAX; WAYS]);
        self.used.fill([0; WAYS]);
        let (mut state, mut strided, mut hits) = (0x2545_f491_4f6c_dd1d_u64, 0u64, 0u64);
        for i in 0..accesses {
            let line = if i % 4 == 0 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % RANDOM_LINES
            } else {
                strided = strided.wrapping_add(3);
                strided % STRIDED_LINES
            };
            let set = (line % SETS as u64) as usize;
            let tag = line / SETS as u64;
            let now = i as u32;
            let (row, used) = (&mut self.tags[set], &mut self.used[set]);
            match row.iter().position(|&t| t == tag) {
                Some(w) => {
                    hits += 1;
                    used[w] = now;
                }
                None => {
                    let victim = (0..WAYS).min_by_key(|&w| used[w]).unwrap_or(0);
                    row[victim] = tag;
                    used[victim] = now;
                }
            }
        }
        hits
    }
}

/// Probe tables, kept between probes so that a probe neither allocates
/// nor faults pages in.
static TABLES: Mutex<Vec<Table>> = Mutex::new(Vec::new());

/// Host seconds of one probe on the calling thread: the fastest of
/// [`RUNS`] kernel runs.
fn probe_one() -> f64 {
    let taken = TABLES.lock().map(|mut t| t.pop()).unwrap_or(None);
    let mut table = taken.unwrap_or_else(Table::new);
    let best = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            black_box(table.run(black_box(ACCESSES)));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    if let Ok(mut tables) = TABLES.lock() {
        tables.push(table);
    }
    best
}

/// Host seconds of one probe: the mean of concurrent probes on one
/// thread per host CPU the benchmark's work may use (at most two), since
/// the scheduler may run the measured work on any of them.
pub fn probe_s() -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cpus).map(|_| s.spawn(probe_one)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The factor that puts a run's host seconds at the nominal host speed,
/// from the probes taken through the run. A single probe is noisy
/// (~0.13 of its median between consecutive probes) while the host's
/// speed drifts over tens of seconds, so the run's median probe stands
/// for its speed.
pub fn to_nominal(probes: &[f64]) -> f64 {
    NOMINAL_PROBE_S / median(probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_the_factor_scales_by_host_speed() {
        let mut table = Table::new();
        let hits = table.run(10_000);
        assert!(hits > 0);
        assert_eq!(table.run(10_000), hits);
        // On a host at half the nominal speed everything takes twice as
        // long; the factor halves the raw time.
        let slow = 2.0 * NOMINAL_PROBE_S;
        assert!((to_nominal(&[slow, 0.5 * slow, slow]) - 0.5).abs() < 1e-12);
    }
}
