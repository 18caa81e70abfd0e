//! `serve_mixed`: an in-process `membound-serve` daemon (`--jobs 2`,
//! fresh cache directory) driven by two closed-loop clients over its
//! Unix socket. The cold client submits distinct ladders that miss the
//! result cache; the warm client resubmits a matrix pre-warmed during
//! set-up, so head-of-line blocking behind a running cold job, if any,
//! shows in warm latency.

use crate::calib::{probe_s, to_nominal, NOMINAL_PROBE_S};
use crate::layers::{self, LayerCounts};
use crate::report::{median, peak_rss_mb, quantile, Metrics};
use crate::sim::emit_and_record;
use crate::spans::{self, span};
use crate::workloads::serve_specs::{self, cold_pool, warm, WARM_DIGEST};
use crate::workloads::Work;
use crate::Outcome;
use membound_core::cache::ResultCache;
use membound_core::telemetry::{validate_run_log, CellRecord, RunHeader, StreamingRunLog};
use membound_parallel::ShutdownFlag;
use membound_serve::client::{SubmitOptions, SubmitOutcome};
use membound_serve::{Client, JobSpec, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The daemon's shared worker budget (`--jobs`).
const DAEMON_JOBS: u32 = 2;
/// The daemon's queue capacity; two closed-loop clients never fill it.
const QUEUE_CAP: usize = 8;
/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Warm samples per run: enough that at least ten lie beyond p90.
const MIN_WARM_SAMPLES: usize = 110;
/// Warm samples reserved up front (a run takes 25k–40k on a 2-vCPU
/// x86-64 VM), so that the sample vector never doubles mid-run and peak
/// RSS grows only by the pages the samples fill.
const WARM_RESERVE: usize = 1 << 17;

/// A daemon serving on a socket inside its own scratch directory.
struct Daemon {
    dir: PathBuf,
    socket: PathBuf,
    flag: ShutdownFlag,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(dir: PathBuf) -> std::io::Result<Daemon> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let socket = dir.join("sock");
        let config = ServerConfig {
            socket: socket.clone(),
            jobs: DAEMON_JOBS,
            queue_cap: QUEUE_CAP,
            cache_dir: Some(dir.join("cache")),
        };
        let flag = ShutdownFlag::manual();
        let server_flag = flag.clone();
        let handle = std::thread::spawn(move || Server::new(config).run(&server_flag));
        Ok(Daemon {
            dir,
            socket,
            flag,
            handle: Some(handle),
        })
    }

    /// Connect, waiting until the socket accepts.
    fn connect(&mut self) -> std::io::Result<Client> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match Client::connect(&self.socket) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    let exited = self.handle.as_ref().is_some_and(JoinHandle::is_finished);
                    if exited || Instant::now() > deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    fn cache_dir(&self) -> PathBuf {
        self.dir.join("cache")
    }

    /// Drain, join and delete the scratch directory.
    fn stop(mut self) -> std::io::Result<()> {
        self.flag.request();
        let joined = self.handle.take().map(JoinHandle::join);
        let _ = std::fs::remove_dir_all(&self.dir);
        match joined {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(std::io::Error::other("daemon thread panicked")),
            None => Ok(()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.flag.request();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One submission as the client saw it.
struct Job {
    latency_s: f64,
    /// Submit to first streamed telemetry line.
    queue_s: Option<f64>,
    records: Vec<CellRecord>,
    cells: u64,
    cached: u64,
    ok: bool,
    rejected: bool,
}

/// Submit `spec` and wait for Done; `expect` is the digest it must
/// carry, and `warm` whether every cell must come from the cache (warm
/// jobs keep no telemetry records) or none may (cold jobs keep them).
fn submit(client: &mut Client, spec: &JobSpec, expect: &str, warm: bool) -> Job {
    let _s = span("client.submit");
    let start = Instant::now();
    let mut first = None;
    let mut records = Vec::new();
    let outcome = client.submit(spec, &SubmitOptions::default(), |line| {
        first.get_or_insert_with(|| start.elapsed().as_secs_f64());
        if !warm {
            if let Ok(rec) = serde_json::from_str::<CellRecord>(line) {
                records.push(rec);
            }
        }
    });
    let latency_s = start.elapsed().as_secs_f64();
    let mut job = Job {
        latency_s,
        queue_s: first,
        records,
        cells: 0,
        cached: 0,
        ok: false,
        rejected: false,
    };
    match outcome {
        Ok(SubmitOutcome::Done {
            status,
            digest,
            cells,
            cached,
            misses,
            ..
        }) => {
            job.cells = cells;
            job.cached = cached;
            let digest_ok = digest.as_deref() == Some(expect);
            let cache_ok = if warm { misses == 0 } else { cached == 0 };
            job.ok = status == "done" && digest_ok && cache_ok;
            if !job.ok {
                eprintln!(
                    "{}: status {status}, digest {digest:?} (expected {expect:?}), cached {cached}, misses {misses}",
                    spec.label()
                );
            }
        }
        Ok(SubmitOutcome::Rejected { reason, .. }) => {
            eprintln!("{}: rejected ({reason})", spec.label());
            job.rejected = true;
        }
        Ok(SubmitOutcome::Error { message }) => eprintln!("{}: error {message}", spec.label()),
        Err(e) => eprintln!("{}: {e}", spec.label()),
    }
    job
}

/// SplitMix64 step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1330_11eb);
    z ^ (z >> 31)
}

/// The cold jobs of one run: the whole pool, in an order drawn from
/// `seed` (transposition and gbmv ladders alternate).
pub fn cold_order(seed: u64) -> Vec<(JobSpec, &'static str)> {
    let pool = cold_pool();
    let (mut t, mut g): (Vec<_>, Vec<_>) = pool
        .into_iter()
        .partition(|(spec, _)| matches!(spec, JobSpec::TransposeLadder { .. }));
    let mut state = seed;
    for v in [&mut t, &mut g] {
        for i in (1..v.len()).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
    t.into_iter().zip(g).flat_map(|(a, b)| [a, b]).collect()
}

/// Lets the cold client take a host probe while the warm client holds
/// off between submissions, so that no program work shares the host
/// with the probe (work by the program would slow the probe and so
/// flatter the run's times at nominal host speed).
#[derive(Default)]
struct ProbeGate {
    requested: AtomicBool,
    warm_paused: AtomicBool,
}

impl ProbeGate {
    /// Cold client: wait for the warm client to pause, probe, and wait
    /// for it to resume. The warm client must be running [`Self::hold`].
    fn probe(&self) -> f64 {
        self.requested.store(true, Ordering::SeqCst);
        while !self.warm_paused.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(50));
        }
        let probe = probe_s();
        self.requested.store(false, Ordering::SeqCst);
        while self.warm_paused.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(50));
        }
        probe
    }

    /// Warm client, between submissions: pause while a probe is asked for.
    fn hold(&self) {
        if !self.requested.load(Ordering::SeqCst) {
            return;
        }
        self.warm_paused.store(true, Ordering::SeqCst);
        while self.requested.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(50));
        }
        self.warm_paused.store(false, Ordering::SeqCst);
    }
}

/// Everything one measured phase produced.
struct Phase {
    /// Median set-up time (raw host seconds).
    setup_s: f64,
    /// Every host probe of the phase.
    probes: Vec<f64>,
    cold: Vec<Job>,
    warm: Vec<Job>,
    daemon: Daemon,
}

/// Set the daemon up [`SETUP_REPS`] times (bind until the socket
/// accepts, then pre-warm the warm matrix), keep the last one, and run
/// both clients against it until the cold pool is done. Host probes
/// bracket every set-up and every cold job.
fn phase(out: &Path, seed: u64) -> Result<Phase, String> {
    let warm_spec = warm();
    let mut setups = Vec::new();
    let mut probes = vec![probe_s()];
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let mut daemon = Daemon::start(out.join(format!("serve{rep}")))
            .map_err(|e| format!("daemon start: {e}"))?;
        let mut client = daemon
            .connect()
            .map_err(|e| format!("daemon connect: {e}"))?;
        let prewarm = submit(&mut client, &warm_spec, WARM_DIGEST, false);
        if !prewarm.ok {
            return Err("pre-warm submission failed".into());
        }
        setups.push(start.elapsed().as_secs_f64());
        probes.push(probe_s());
        if rep + 1 < SETUP_REPS {
            drop(client);
            daemon.stop().map_err(|e| format!("daemon stop: {e}"))?;
        } else {
            kept = Some((daemon, client));
        }
    }
    let (mut daemon, mut warm_client) = kept.expect("at least one set-up");
    let mut cold_client = daemon
        .connect()
        .map_err(|e| format!("daemon connect: {e}"))?;
    let cold_jobs = cold_order(seed);
    let done = AtomicBool::new(false);
    let gate = ProbeGate::default();
    let parent = spans::current();
    let (cold, warm) = std::thread::scope(|s| {
        let cold = s.spawn(|| {
            let _p = spans::span_with_parent("bench.cold_client", parent);
            let mut probes = vec![gate.probe()];
            let jobs: Vec<Job> = cold_jobs
                .iter()
                .map(|(spec, digest)| {
                    let job = submit(&mut cold_client, spec, digest, false);
                    probes.push(gate.probe());
                    job
                })
                .collect();
            done.store(true, Ordering::SeqCst);
            (jobs, probes)
        });
        let mut warm = Vec::with_capacity(WARM_RESERVE);
        while !done.load(Ordering::SeqCst) || warm.len() < MIN_WARM_SAMPLES {
            gate.hold();
            warm.push(submit(&mut warm_client, &warm_spec, WARM_DIGEST, true));
        }
        (cold.join().expect("cold client panicked"), warm)
    });
    let (cold, cold_probes) = cold;
    probes.extend(cold_probes);
    Ok(Phase {
        setup_s: median(&setups),
        probes,
        cold,
        warm,
        daemon,
    })
}

fn failures(jobs: &[&Job]) -> u64 {
    jobs.iter().filter(|j| !j.ok).count() as u64
}

/// The end-to-end run.
pub fn run(out: &Path, seed: u64) -> Outcome {
    let p = match phase(out, seed) {
        Ok(p) => p,
        Err(e) => return Outcome::broken(e),
    };
    let cold_lat: Vec<f64> = p.cold.iter().map(|j| j.latency_s).collect();
    let cold_refs = LayerCounts::of_records(&sim_records(&p.cold)).l1_accesses;
    let speed = to_nominal(&p.probes);
    let mut m = Metrics::default();
    m.put("wall_s", median(&cold_lat) * speed, "s");
    m.put(
        "sim_mrefs_per_s",
        cold_refs as f64 / (cold_lat.iter().sum::<f64>() * speed) / 1e6,
        "Mref/s",
    );
    m.put("setup_s", p.setup_s * speed, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    let all: Vec<&Job> = p.cold.iter().chain(&p.warm).collect();
    let notes = vec![
        format!(
            "{} cold and {} warm submissions",
            p.cold.len(),
            p.warm.len()
        ),
        format!(
            "raw medians: cold job {:.4} s, set-up {:.5} s; host probes (ms, nominal {:.1}): {}",
            median(&cold_lat),
            p.setup_s,
            NOMINAL_PROBE_S * 1e3,
            crate::sim::join(&p.probes.iter().map(|x| x * 1e3).collect::<Vec<_>>(), 3)
        ),
    ];
    let failed = failures(&all);
    if let Err(e) = p.daemon.stop() {
        return Outcome::broken(format!("daemon drain: {e}"));
    }
    Outcome::new(m, all.len() as u64, failed, notes)
}

fn sim_records(jobs: &[Job]) -> Vec<membound_core::telemetry::SimRecord> {
    jobs.iter()
        .flat_map(|j| j.records.iter().filter_map(|r| r.sim.clone()))
        .collect()
}

/// Median host milliseconds of `f` over `items`, under span `name`.
fn median_ms<T>(items: &[T], name: &'static str, mut f: impl FnMut(&T)) -> f64 {
    let samples: Vec<f64> = items
        .iter()
        .map(|x| {
            let _s = span(name);
            let t = Instant::now();
            f(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The traced run: one untraced phase for the overhead baseline, then
/// a traced phase plus outside-in probes of the result cache and the
/// run log.
pub fn traced(out: &Path, seed: u64) -> Outcome {
    let untraced = match phase(out, seed) {
        Ok(p) => p,
        Err(e) => return Outcome::broken(e),
    };
    let base_cold = median(
        &untraced
            .cold
            .iter()
            .map(|j| j.latency_s)
            .collect::<Vec<_>>(),
    );
    let mut failed = failures(
        &untraced
            .cold
            .iter()
            .chain(&untraced.warm)
            .collect::<Vec<_>>(),
    );
    let mut attempted = (untraced.cold.len() + untraced.warm.len()) as u64;
    if let Err(e) = untraced.daemon.stop() {
        return Outcome::broken(format!("daemon drain: {e}"));
    }

    spans::set_enabled(true);
    let root = span("bench.traced_run");
    let p = match phase(out, seed) {
        Ok(p) => p,
        Err(e) => return Outcome::broken(e),
    };
    let all: Vec<&Job> = p.cold.iter().chain(&p.warm).collect();
    failed += failures(&all);
    attempted += all.len() as u64;
    let cold_lat: Vec<f64> = p.cold.iter().map(|j| j.latency_s).collect();
    let warm_ms: Vec<f64> = p.warm.iter().map(|j| j.latency_s * 1e3).collect();
    let warm_queue_ms: Vec<f64> = p
        .warm
        .iter()
        .filter_map(|j| j.queue_s.map(|q| q * 1e3))
        .collect();
    let cold_run_s: Vec<f64> = p
        .cold
        .iter()
        .filter_map(|j| j.queue_s.map(|q| j.latency_s - q))
        .collect();
    // One run log of every cold cell, re-indexed in arrival order.
    let records: Vec<CellRecord> = p
        .cold
        .iter()
        .flat_map(|j| j.records.clone())
        .enumerate()
        .map(|(i, mut r)| {
            r.index = i as u64;
            r
        })
        .collect();

    // Outside-in probes on the daemon's cache directory and a run log of
    // the cold jobs' streamed records.
    let cache = match ResultCache::open(&p.daemon.cache_dir()) {
        Ok(c) => c,
        Err(e) => return Outcome::broken(format!("open result cache: {e}")),
    };
    let cells: Vec<_> = std::iter::once(warm())
        .chain(cold_order(seed).into_iter().map(|(s, _)| s))
        .filter_map(|s| s.matrix().ok())
        .flat_map(|m| m.cells().to_vec())
        .collect();
    let mut entries = Vec::new();
    let lookup_ms = median_ms(&cells, "resultcache.lookup", |cell| {
        if let Some(e) = cache.lookup(&cache.key_for(cell)) {
            entries.push((cache.key_for(cell), e));
        }
    });
    if entries.len() != cells.len() {
        eprintln!(
            "result cache holds {} of {} served cells",
            entries.len(),
            cells.len()
        );
        failed += 1;
    }
    let insert_ms = median_ms(&entries, "resultcache.insert", |(key, entry)| {
        if let Err(e) = cache.insert(key, entry, || {}) {
            eprintln!("result cache insert: {e}");
        }
    });
    let log_path = out.join("serve_runlog.jsonl");
    let header = RunHeader::new("serve_mixed", DAEMON_JOBS, records.len() as u64);
    let (append_ms, validate_ms) = match StreamingRunLog::create(&log_path, &header) {
        Ok(mut log) => {
            let append = median_ms(&records, "telemetry.append", |r| {
                if let Err(e) = log.append_record(r) {
                    eprintln!("run log append: {e}");
                }
            });
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            let validate = median_ms(&[text], "telemetry.validate", |t| {
                if let Err(e) = validate_run_log(t) {
                    eprintln!("served run log does not validate: {e}");
                    failed += 1;
                }
            });
            (append, validate)
        }
        Err(e) => return Outcome::broken(format!("create run log: {e}")),
    };
    let _ = std::fs::remove_file(&log_path);

    // Emission and IR recording of the cells the cold jobs simulated.
    let works: Vec<Work> = cold_order(seed)
        .into_iter()
        .filter_map(|(s, _)| s.matrix().ok())
        .flat_map(|m| m.cells().to_vec())
        .map(Work::Cell)
        .collect();
    let profiles: Vec<_> = works.iter().map(emit_and_record).collect();
    drop(root);
    spans::set_enabled(false);

    let mut m = Metrics::default();
    // The daemon simulates out of the benchmark's reach: no ablations,
    // replays, native baselines or engine-side timings here.
    layers::put_not_on_path(
        &mut m,
        &[
            "machine",
            "runner",
            "native",
            "sim",
            "tlb.share",
            "tlb.ns_per_lookup",
            "prefetch.share",
            "prefetch.ns_per_observe",
            "cache.ns_per_access",
            "analytic.gain_s",
        ],
    );
    let emitted: u64 = profiles.iter().map(|c| c.refs).sum();
    m.put("trace.emit_s", profiles.iter().map(|c| c.emit_s).sum(), "s");
    m.count("trace.refs", emitted);
    m.count(
        "trace.strided_batches",
        profiles.iter().map(|c| c.strided_batches).sum(),
    );
    m.put(
        "ir.record_s",
        profiles.iter().map(|c| c.record_s).sum(),
        "s",
    );
    m.count("ir.ops", profiles.iter().map(|c| c.ir_ops).sum());
    let host_workers = records
        .iter()
        .filter_map(|r| r.sim.as_ref().and_then(|s| s.host_workers))
        .max()
        .unwrap_or(1);
    m.put("machine.host_workers", f64::from(host_workers), "workers");
    LayerCounts::of_records(&sim_records(&p.cold)).put(&mut m, emitted);
    let (eligible, total) = profiles
        .iter()
        .fold((0, 0), |(e, t), c| (e + c.eligible, t + c.total));
    m.put(
        "analytic.coverage_pct",
        eligible as f64 / total.max(1) as f64 * 100.0,
        "%",
    );
    m.put("resultcache.lookup_ms", lookup_ms, "ms");
    m.put("resultcache.insert_ms", insert_ms, "ms");
    let (hits, served) = all
        .iter()
        .fold((0, 0), |(h, n), j| (h + j.cached, n + j.cells));
    m.put(
        "resultcache.hit_ratio",
        hits as f64 / served.max(1) as f64,
        "ratio",
    );
    m.put("telemetry.append_ms", append_ms, "ms");
    m.put("telemetry.validate_ms", validate_ms, "ms");
    m.put("serve.queue_ms", median(&warm_queue_ms), "ms");
    m.put("serve.run_s", median(&cold_run_s), "s");
    m.count(
        "serve.rejected",
        all.iter().filter(|j| j.rejected).count() as u64,
    );
    m.put("submit_cold_p50_s", median(&cold_lat), "s");
    m.put("submit_warm_p50_ms", median(&warm_ms), "ms");
    m.put("submit_warm_p90_ms", quantile(&warm_ms, 0.9), "ms");
    m.put("submit_warm_samples", warm_ms.len() as f64, "samples");
    m.put(
        "fail_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.put("host.probe_ms", median(&p.probes) * 1e3, "ms");
    m.put(
        "bench.trace_overhead_pct",
        (median(&cold_lat) - base_cold) / base_cold * 100.0,
        "%",
    );
    let spans = spans::take();
    layers::put_self_times(&mut m, &spans);
    let notes = vec![format!(
        "{} cold and {} warm submissions traced; {} pool jobs",
        p.cold.len(),
        p.warm.len(),
        serve_specs::COLD_POOL_LEN
    )];
    if let Err(e) = p.daemon.stop() {
        return Outcome::broken(format!("daemon drain: {e}"));
    }
    let mut out = Outcome::new(m, attempted, failed, notes);
    out.spans = spans;
    out
}
