//! The daemon: socket accept loop, job scheduler and job table.
//!
//! # Architecture
//!
//! One [`Server::run`] call owns three kinds of threads inside a single
//! `std::thread::scope`:
//!
//! * the **accept loop** (the calling thread) polls a non-blocking
//!   [`UnixListener`] and spawns one connection thread per client;
//! * **connection threads** speak the line protocol: they validate and
//!   admit submissions into the bounded [`JobQueue`], then forward the
//!   job's streamed telemetry lines from the runner back to the client
//!   and finish with the terminal `Done` line;
//! * the **scheduler thread** waits for queued work, *seats* the next
//!   job — [`JobBudget::lease_blocking`] blocks until one worker slot
//!   of the shared budget frees — and only then pops it in priority
//!   order, spawning its **runner thread**, which executes the matrix
//!   through [`Engine::run_streamed`] against that same shared budget.
//!   Seat-before-pop keeps waiting jobs inside the bounded queue, so
//!   `--queue-cap` is a true ceiling and a full queue rejects instead
//!   of silently admitting one extra job.
//!
//! The seat is the admission-control invariant: a runner's calling
//! thread holds one leased slot, and the engine only leases *extra*
//! workers beyond it, so the worker threads of every concurrently
//! running job sum to at most `--jobs` — N jobs share one host budget
//! instead of multiplying it. Contention moves wall time only: cell
//! outcomes are slotted by index and independent of who wins a spare
//! slot (DESIGN.md §9), which is why a served job's digest is
//! byte-identical to a serial one-shot run's.
//!
//! # Shutdown
//!
//! `SIGTERM`, `SIGINT` or a `Shutdown` request all trip the same
//! [`ShutdownFlag`]: the accept loop stops, the queue closes (new
//! submissions are rejected as `draining`), queued and running jobs
//! finish and stream out normally, the scope joins every thread, and
//! the socket file is removed. Nothing admitted is ever dropped.

use crate::protocol::{self, reject, state, JobStatus, Request, Response};
use crate::queue::{JobQueue, SubmitError};
use membound_core::cache::ResultCache;
use membound_core::runner::{Engine, ExperimentMatrix, RunOptions};
use membound_core::telemetry::RunHeader;
use membound_parallel::{Failpoint, JobBudget, ShutdownFlag};
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// How long the accept loop sleeps between polls of the non-blocking
/// listener and the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Read timeout on connection sockets, so idle connection threads
/// notice a drain promptly instead of blocking in `read` forever.
const CONN_POLL: Duration = Duration::from_millis(100);

/// Longest request line the daemon reads, newline included. Requests
/// are a few hundred bytes; a longer line is answered with `Error` and
/// dropped through its newline, so no client can make a connection
/// thread buffer without bound.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Backoff hint per queued entry when rejecting on a full queue: a
/// deliberately coarse "come back later", not a latency model.
const RETRY_AFTER_MS_PER_QUEUED: u64 = 250;

/// Ceiling on the backoff hint (one minute): the hint is advisory, and
/// a pathological queue depth must not overflow the multiply or tell a
/// well-behaved client to go away for hours.
const RETRY_AFTER_MS_CAP: u64 = 60_000;

/// The queue-full backoff hint for a rejection observed at `depth`
/// queued entries: saturating, capped at [`RETRY_AFTER_MS_CAP`].
fn retry_after_ms(depth: usize) -> u64 {
    (depth as u64)
        .saturating_mul(RETRY_AFTER_MS_PER_QUEUED)
        .min(RETRY_AFTER_MS_CAP)
}

/// Daemon configuration (one [`Server`] per socket path).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-socket path to listen on. The daemon assumes sole ownership
    /// of the path: a stale file left by a killed predecessor is
    /// removed at startup, and a clean shutdown removes it again.
    pub socket: PathBuf,
    /// Shared worker budget across all concurrently running jobs
    /// (exactly the one-shot `--jobs` semantics).
    pub jobs: u32,
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// a retry hint ([`reject::QUEUE_FULL`]).
    pub queue_cap: usize,
    /// Persistent result cache shared by every job; `None` disables
    /// caching (each job simulates everything).
    pub cache_dir: Option<PathBuf>,
}

/// One job-table entry (the daemon-side source of [`JobStatus`] rows
/// and terminal `Done` lines).
#[derive(Debug, Clone)]
struct JobInfo {
    label: String,
    state: &'static str,
    priority: u8,
    cells: u64,
    cached: u64,
    misses: u64,
    digest: Option<String>,
    error: Option<String>,
}

impl JobInfo {
    fn status(&self, job: u64) -> JobStatus {
        JobStatus {
            job,
            label: self.label.clone(),
            state: self.state.into(),
            priority: self.priority,
            cells: self.cells,
            cached: self.cached,
            misses: self.misses,
            digest: self.digest.clone(),
            error: self.error.clone(),
        }
    }
}

/// A queued job's payload: everything the runner needs, plus the
/// channel back to the submitting connection. Dropping it unread (a
/// cancel) disconnects the channel, which is how the submitter learns
/// the job will never stream.
struct Work {
    matrix: ExperimentMatrix,
    retries: u32,
    cell_deadline: Option<f64>,
    failpoint: Option<Failpoint>,
    stream: bool,
    tx: mpsc::Sender<String>,
}

/// Everything the connection, scheduler and runner threads share.
struct Shared {
    engine: Engine,
    budget: JobBudget,
    queue: JobQueue<Work>,
    table: Mutex<BTreeMap<u64, JobInfo>>,
    next_job: AtomicU64,
    cache: Option<ResultCache>,
    shutdown: ShutdownFlag,
}

impl Shared {
    fn set_state(&self, job: u64, new_state: &'static str) {
        if let Some(info) = self.table.lock().expect("job table poisoned").get_mut(&job) {
            info.state = new_state;
        }
    }
}

/// The membound simulation daemon.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
}

impl Server {
    /// A server for `config` (nothing happens until [`Server::run`]).
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        Self { config }
    }

    /// Bind the socket and serve until `shutdown` trips, then drain and
    /// remove the socket. Blocks for the daemon's whole lifetime.
    ///
    /// # Errors
    ///
    /// Binding or preparing the socket path, and opening the result
    /// cache, are the only fatal errors; per-connection and per-job
    /// failures are reported to the affected client instead.
    pub fn run(&self, shutdown: &ShutdownFlag) -> std::io::Result<()> {
        let config = &self.config;
        // A predecessor killed with SIGKILL leaves its socket file
        // behind; this daemon owns the path, so reclaim it.
        match std::fs::remove_file(&config.socket) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        if let Some(dir) = config.socket.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let listener = UnixListener::bind(&config.socket)?;
        listener.set_nonblocking(true)?;

        let cache = match &config.cache_dir {
            Some(dir) => Some(ResultCache::open(dir)?),
            None => None,
        };
        let shared = Shared {
            engine: Engine::new(config.jobs),
            budget: JobBudget::new(config.jobs),
            queue: JobQueue::new(config.queue_cap),
            table: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(1),
            cache,
            shutdown: shutdown.clone(),
        };

        std::thread::scope(|scope| {
            // `&Scope` is Copy: the move closures below copy the scope
            // reference and the `&Shared` borrow, which is what lets
            // the scheduler thread spawn runner threads of its own.
            let shared = &shared;
            let scheduler = scope.spawn(move || {
                // Seat BEFORE pop: a job must keep occupying its queue
                // slot (and count against `--queue-cap`) until a budget
                // seat actually frees for it, or a full queue would
                // silently hold cap+1 jobs and never reject. Draining
                // must still seat queued jobs, so the wait is never
                // abandoned. `try_pop` can still miss (the entry was
                // cancelled while we waited for the seat) — then the
                // seat drops and we go back to waiting for work.
                while shared.queue.wait_nonempty() {
                    let seat = shared
                        .budget
                        .lease_blocking(1, 1, || true)
                        .expect("a non-empty budget always seats eventually");
                    let Some((job, _priority, work)) = shared.queue.try_pop() else {
                        continue;
                    };
                    shared.set_state(job, state::RUNNING);
                    scope.spawn(move || run_job(shared, job, &work, seat));
                }
            });

            while !shutdown.is_requested() {
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        scope.spawn(move || {
                            if let Err(e) = serve_connection(shared, stream) {
                                // A vanished client mid-exchange is
                                // routine, not a daemon failure.
                                eprintln!("[membound-serve] connection: {e}");
                            }
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        eprintln!("[membound-serve] accept: {e}");
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            }
            // Drain: no new work, finish everything admitted. The scope
            // joins connection and runner threads on exit.
            shared.queue.close();
            drop(scheduler);
        });

        std::fs::remove_file(&config.socket)
    }
}

/// Execute one seated job and publish its outcome. The seat lease is
/// held for the whole run (the engine's calling thread is the first
/// accounted worker) and returned to the budget when this function —
/// and with it the runner thread — finishes.
fn run_job(shared: &Shared, job: u64, work: &Work, seat: membound_parallel::Lease) {
    let options = RunOptions {
        resume: None,
        retries: work.retries,
        cell_deadline: work.cell_deadline,
        stream_log: None,
        failpoint: work.failpoint.clone(),
        cache: shared.cache.clone(),
    };
    if work.stream {
        let header = RunHeader::new(
            work.matrix.figure(),
            shared.engine.jobs(),
            work.matrix.len() as u64,
        );
        let _ = work.tx.send(protocol::to_line(&header));
    }
    let sink = |_index: u64, record: &membound_core::telemetry::CellRecord| {
        let _ = work.tx.send(protocol::to_line(record));
    };
    let result = if work.stream {
        shared
            .engine
            .run_streamed(&work.matrix, &options, &shared.budget, Some(&sink))
    } else {
        shared
            .engine
            .run_streamed(&work.matrix, &options, &shared.budget, None)
    };
    drop(seat);

    let mut table = shared.table.lock().expect("job table poisoned");
    let Some(info) = table.get_mut(&job) else {
        return;
    };
    match result {
        Ok(results) => {
            info.state = state::DONE;
            info.cached = results.cached;
            info.misses = results.cells.len() as u64 - results.cached - results.restored;
            info.digest = Some(results.combined_digest());
        }
        Err(e) => {
            info.state = state::FAILED;
            info.error = Some(e.to_string());
        }
    }
    // The runner owns no sender beyond `work`; the submitting
    // connection's receiver disconnects when `work` drops at the end of
    // the runner thread, which is its signal to emit the Done line.
}

/// Speak the protocol on one accepted connection until EOF or drain.
fn serve_connection(shared: &Shared, stream: UnixStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(CONN_POLL))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        let parsed = match read_line_polling(&mut reader, &mut line, shared)? {
            LineRead::End => return Ok(()),
            LineRead::TooLong => Err(format!(
                "bad request: line longer than {MAX_REQUEST_LINE} bytes"
            )),
            LineRead::Line => match std::str::from_utf8(&line).map(str::trim) {
                Ok("") => continue,
                Ok(text) => serde_json::from_str(text).map_err(|e| format!("bad request: {e}")),
                Err(e) => Err(format!("bad request: {e}")),
            },
        };
        let request: Request = match parsed {
            Ok(r) => r,
            Err(message) => {
                write_line(&mut writer, &Response::Error { message })?;
                continue;
            }
        };
        match request {
            Request::Submit {
                spec,
                priority,
                retries,
                cell_deadline,
                failpoint,
                stream,
            } => {
                let response = handle_submit(
                    shared,
                    &mut writer,
                    SubmitParams {
                        spec,
                        priority: priority.unwrap_or(0),
                        retries: retries.unwrap_or(0),
                        cell_deadline,
                        failpoint,
                        stream: stream.unwrap_or(true),
                    },
                )?;
                write_line(&mut writer, &response)?;
            }
            Request::Status { job } => {
                let table = shared.table.lock().expect("job table poisoned");
                let jobs: Vec<JobStatus> = table
                    .iter()
                    .filter(|(id, _)| job.is_none() || job == Some(**id))
                    .map(|(id, info)| info.status(*id))
                    .collect();
                drop(table);
                write_line(&mut writer, &Response::Status { jobs })?;
            }
            Request::Cancel { job } => {
                let response = if let Some(work) = shared.queue.cancel(job) {
                    shared.set_state(job, state::CANCELLED);
                    // Dropping the queued payload disconnects its
                    // telemetry channel; the submitter sees the
                    // cancellation as its terminal state.
                    drop(work);
                    Response::Cancelled { job }
                } else {
                    let table = shared.table.lock().expect("job table poisoned");
                    let message = match table.get(&job) {
                        None => format!("unknown job {job}"),
                        Some(info) => format!(
                            "job {job} is {} — only queued jobs can be cancelled \
                             (the simulator has no cancellation points)",
                            info.state
                        ),
                    };
                    Response::Error { message }
                };
                write_line(&mut writer, &response)?;
            }
            Request::Shutdown => {
                shared.shutdown.request();
                write_line(&mut writer, &Response::ShuttingDown)?;
                return Ok(());
            }
        }
    }
}

/// The resolved fields of one submission.
struct SubmitParams {
    spec: crate::spec::JobSpec,
    priority: u8,
    retries: u32,
    cell_deadline: Option<f64>,
    failpoint: Option<String>,
    stream: bool,
}

/// Validate, admit and — once the runner finishes — terminate one
/// submission. Returns the terminal response to write (`Rejected`,
/// `Error` or `Done`); the `Accepted` line and the streamed telemetry
/// are written inline.
fn handle_submit(
    shared: &Shared,
    writer: &mut UnixStream,
    params: SubmitParams,
) -> std::io::Result<Response> {
    if shared.shutdown.is_requested() {
        return Ok(Response::Rejected {
            reason: reject::DRAINING.into(),
            retry_after_ms: None,
        });
    }
    // Validate everything before admission: a bad spec must never
    // occupy a queue slot.
    let matrix = match params.spec.matrix() {
        Ok(m) => m,
        Err(message) => return Ok(Response::Error { message }),
    };
    let failpoint = match &params.failpoint {
        None => Failpoint::from_env(),
        Some(spec) => match Failpoint::parse(spec) {
            Ok(fp) => Some(fp),
            Err(message) => return Ok(Response::Error { message }),
        },
    };
    let (tx, rx) = mpsc::channel::<String>();
    let cells = matrix.len() as u64;
    let work = Work {
        matrix,
        retries: params.retries,
        cell_deadline: params.cell_deadline,
        failpoint,
        stream: params.stream,
        tx,
    };
    let job = shared.next_job.fetch_add(1, Ordering::Relaxed);
    // Table insertion and queue admission under the table lock, so the
    // scheduler (which takes the table lock only after popping) can
    // never observe a queued job without a table row.
    let depth = {
        let mut table = shared.table.lock().expect("job table poisoned");
        match shared.queue.submit(job, params.priority, work) {
            Ok(depth) => {
                table.insert(
                    job,
                    JobInfo {
                        label: params.spec.label(),
                        state: state::QUEUED,
                        priority: params.priority,
                        cells,
                        cached: 0,
                        misses: 0,
                        digest: None,
                        error: None,
                    },
                );
                depth
            }
            Err(SubmitError::Full { depth }) => {
                return Ok(Response::Rejected {
                    reason: reject::QUEUE_FULL.into(),
                    retry_after_ms: Some(retry_after_ms(depth)),
                });
            }
            Err(SubmitError::Closed) => {
                return Ok(Response::Rejected {
                    reason: reject::DRAINING.into(),
                    retry_after_ms: None,
                });
            }
        }
    };
    write_line(
        writer,
        &Response::Accepted {
            job,
            queue_depth: depth as u64,
        },
    )?;
    // Forward the runner's streamed lines until it (or a cancel) drops
    // the sender. A write failure means the client vanished; the job
    // keeps running — its results still land in the shared cache — and
    // the error propagates after the channel is drained off this
    // thread's hands.
    let mut write_result = Ok(());
    for streamed in rx {
        if write_result.is_ok() {
            write_result = writeln!(writer, "{streamed}");
        }
    }
    write_result?;
    let table = shared.table.lock().expect("job table poisoned");
    let info = table.get(&job).expect("submitted job has a table row");
    Ok(Response::Done {
        job,
        status: info.state.into(),
        digest: info.digest.clone(),
        cells: info.cells,
        cached: info.cached,
        misses: info.misses,
        error: info.error.clone(),
    })
}

/// What [`read_line_polling`] read.
enum LineRead {
    /// A line is in the buffer (newline-terminated, or the last bytes
    /// before EOF).
    Line,
    /// EOF, or the daemon drained while the connection was idle.
    End,
    /// The line exceeded [`MAX_REQUEST_LINE`] and was dropped through
    /// its newline.
    TooLong,
}

/// Read one request line against a socket with a read timeout:
/// timeouts poll the drain flag (ending the connection once the daemon
/// drains while it is idle); partial lines survive timeouts because
/// `read_until` appends into the same buffer across calls. At most
/// [`MAX_REQUEST_LINE`] bytes are buffered; the rest of a longer line is
/// read and discarded.
fn read_line_polling(
    reader: &mut BufReader<UnixStream>,
    line: &mut Vec<u8>,
    shared: &Shared,
) -> std::io::Result<LineRead> {
    let mut oversized = false;
    loop {
        let room = (MAX_REQUEST_LINE - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', line) {
            Ok(_) => {
                let complete = line.last() == Some(&b'\n');
                // Short of the cap without a newline means EOF.
                let eof = !complete && line.len() < MAX_REQUEST_LINE;
                if oversized {
                    line.clear();
                    if complete {
                        return Ok(LineRead::TooLong);
                    }
                    if eof {
                        return Ok(LineRead::End);
                    }
                } else if complete || eof {
                    return Ok(if line.is_empty() {
                        LineRead::End
                    } else {
                        LineRead::Line
                    });
                } else {
                    oversized = true;
                    line.clear();
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.is_requested() && line.is_empty() {
                    return Ok(LineRead::End);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Write one protocol line.
fn write_line<T: serde::Serialize>(writer: &mut UnixStream, message: &T) -> std::io::Result<()> {
    writeln!(writer, "{}", protocol::to_line(message))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backoff hint saturates instead of overflowing, and is capped
    /// at one minute even at the largest representable queue depth.
    #[test]
    fn retry_after_hint_saturates_and_caps() {
        assert_eq!(retry_after_ms(0), 0);
        assert_eq!(retry_after_ms(4), 1000);
        assert_eq!(
            retry_after_ms(RETRY_AFTER_MS_CAP as usize / 250),
            RETRY_AFTER_MS_CAP
        );
        assert_eq!(retry_after_ms(usize::MAX), RETRY_AFTER_MS_CAP);
        // The raw multiply would wrap well before usize::MAX; make sure
        // the first overflowing depth is already capped.
        let first_overflow = (u64::MAX / RETRY_AFTER_MS_PER_QUEUED) as usize + 1;
        assert_eq!(retry_after_ms(first_overflow), RETRY_AFTER_MS_CAP);
    }
}
