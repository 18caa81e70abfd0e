//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every binary in `src/bin` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index): it prints a text table with the
//! same rows/series the paper plots, and writes machine-readable JSON
//! next to it under `results/`. The figure binaries additionally execute
//! their experiment matrices through `membound_core::runner::Engine` and
//! write a versioned JSONL run log (`membound_core::telemetry`).

#![warn(missing_docs)]

use membound_core::cache::ResultCache;
use membound_core::runner::{resolve_jobs, Engine, ExperimentMatrix, RunOptions, RunResults};
use membound_core::telemetry::parse_partial_run_log;
use membound_parallel::Failpoint;
use membound_sim::Device;
use std::path::PathBuf;

/// Common command-line options of the figure binaries.
///
/// * `--full` — run the paper's full workload sizes (8192²/16384²
///   matrices, the 2544×2027 image). Defaults to scaled-down workloads
///   that finish in seconds while preserving every qualitative effect
///   (all working sets still exceed every modelled cache).
/// * `--json <path>` — where to write the JSON rows (defaults to
///   `results/<name>.json`).
/// * `--jobs <N>` — worker threads for the experiment engine (defaults
///   to `MEMBOUND_JOBS`, then the host's core count). Any job count
///   produces identical simulated results; only wall time changes.
/// * `--device <label>` — restrict the device axis to one device
///   (label or a case-insensitive prefix, e.g. `visionfive`).
/// * `--run-log <path>` — where to write the JSONL telemetry run log
///   (defaults to `results/<name>.jsonl`). The log is *streamed*: each
///   cell's line is appended and synced as the cell finishes, so a
///   killed run leaves a valid truncated log.
/// * `--resume <run-log>` — restore finished cells from a (possibly
///   truncated) run log of the same figure and re-simulate only the
///   missing ones. The resumed run's digest-bearing fields are
///   byte-identical to an uninterrupted run's.
/// * `--retries <N>` — re-run a panicking cell up to N times before
///   recording it as `failed` (default 0: a panic is recorded directly).
/// * `--cell-deadline <seconds>` — discard any cell attempt that
///   finishes past this wall-clock budget and record the cell as
///   `timed_out` (checked at attempt boundaries).
/// * `--cache-dir <dir>` — persistent content-addressed result cache
///   (DESIGN.md §12; the `MEMBOUND_CACHE_DIR` environment variable is
///   the fallback): cells whose configuration was simulated before are
///   restored instead of re-simulated, byte-identically in every
///   digest-bearing field; fresh results are inserted for next time.
#[derive(Debug, Clone)]
pub struct Args {
    /// Run the paper's full workload sizes.
    pub full: bool,
    /// Output path for JSON rows.
    pub json_path: PathBuf,
    /// Explicit `--jobs` value, if given.
    pub jobs: Option<u32>,
    /// Device filter, if given.
    pub device_filter: Option<String>,
    /// Output path for the JSONL run log.
    pub run_log_path: PathBuf,
    /// Partial run log to resume from, if given.
    pub resume: Option<PathBuf>,
    /// Per-cell retry budget for panicking cells.
    pub retries: u32,
    /// Per-cell wall-clock deadline in seconds, if given.
    pub cell_deadline: Option<f64>,
    /// Result-cache directory, if given (`--cache-dir`, else the
    /// `MEMBOUND_CACHE_DIR` environment variable).
    pub cache_dir: Option<PathBuf>,
}

impl Args {
    /// Parse from `std::env::args`, with `name` naming the default JSON
    /// output file.
    ///
    /// # Panics
    ///
    /// Panics on an unknown flag (with a usage message).
    #[must_use]
    pub fn parse(name: &str) -> Self {
        let usage = format!(
            "usage: {name} [--full] [--json <path>] [--jobs <N>] [--device <label>] \
             [--run-log <path>] [--resume <run-log>] [--retries <N>] \
             [--cell-deadline <seconds>] [--cache-dir <dir>]"
        );
        let mut full = false;
        let mut json_path = PathBuf::from(format!("results/{name}.json"));
        let mut jobs = None;
        let mut device_filter = None;
        let mut run_log_path = PathBuf::from(format!("results/{name}.jsonl"));
        let mut resume = None;
        let mut retries = 0;
        let mut cell_deadline = None;
        let mut cache_dir = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => full = true,
                "--json" => {
                    json_path =
                        PathBuf::from(args.next().expect("--json requires a path argument"));
                }
                "--jobs" => {
                    let v = args.next().expect("--jobs requires a thread count");
                    jobs = Some(v.parse().unwrap_or_else(|_| {
                        panic!("--jobs requires a positive integer, got {v:?}")
                    }));
                }
                "--device" => {
                    device_filter = Some(args.next().expect("--device requires a device label"));
                }
                "--run-log" => {
                    run_log_path =
                        PathBuf::from(args.next().expect("--run-log requires a path argument"));
                }
                "--resume" => {
                    resume = Some(PathBuf::from(
                        args.next()
                            .expect("--resume requires the path of a partial run log"),
                    ));
                }
                "--retries" => {
                    let v = args.next().expect("--retries requires a count");
                    retries = v.parse().unwrap_or_else(|_| {
                        panic!("--retries requires a non-negative integer, got {v:?}")
                    });
                }
                "--cell-deadline" => {
                    let v = args.next().expect("--cell-deadline requires seconds");
                    let seconds: f64 = v
                        .parse()
                        .unwrap_or_else(|_| panic!("--cell-deadline requires seconds, got {v:?}"));
                    assert!(
                        seconds > 0.0,
                        "--cell-deadline requires positive seconds, got {v:?}"
                    );
                    cell_deadline = Some(seconds);
                }
                "--cache-dir" => {
                    cache_dir = Some(PathBuf::from(
                        args.next().expect("--cache-dir requires a directory"),
                    ));
                }
                "--help" | "-h" => {
                    println!("{usage}");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; {usage}"),
            }
        }
        Self {
            full,
            json_path,
            jobs,
            device_filter,
            run_log_path,
            resume,
            retries,
            cell_deadline,
            cache_dir,
        }
    }

    /// The result cache these options select, opened at `--cache-dir`
    /// or the `MEMBOUND_CACHE_DIR` environment variable (the flag
    /// wins); `None` when neither is set.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be opened as a cache (e.g. its
    /// index file belongs to something else).
    #[must_use]
    pub fn cache(&self) -> Option<ResultCache> {
        let dir = self.cache_dir.clone().or_else(|| {
            std::env::var_os("MEMBOUND_CACHE_DIR")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        })?;
        Some(
            ResultCache::open(&dir)
                .unwrap_or_else(|e| panic!("--cache-dir {}: {e}", dir.display())),
        )
    }

    /// The experiment engine these options select: `--jobs`, else
    /// `MEMBOUND_JOBS`, else the host core count.
    #[must_use]
    pub fn engine(&self) -> Engine {
        Engine::new(resolve_jobs(self.jobs))
    }

    /// Execute `matrix` under this invocation's fault-tolerance policy:
    /// streaming telemetry to the `--run-log` path, `--resume` /
    /// `--retries` / `--cell-deadline`, and any `MEMBOUND_FAILPOINT`
    /// fault injection.
    ///
    /// # Panics
    ///
    /// Panics (with the underlying message) when the `--resume` log
    /// cannot be read, is corrupt, or does not describe `matrix`, and on
    /// a malformed `MEMBOUND_FAILPOINT` spec.
    #[must_use]
    pub fn run_matrix(&self, engine: &Engine, matrix: &ExperimentMatrix) -> RunResults {
        let resume = self.resume.as_ref().map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("--resume {}: {e}", path.display()));
            let partial = parse_partial_run_log(&text)
                .unwrap_or_else(|e| panic!("--resume {}: {e}", path.display()));
            println!(
                "[resuming from {}: {} of {} cell records present{}]",
                path.display(),
                partial.records.len(),
                partial.header.cells,
                if partial.truncated_tail {
                    ", torn final line dropped"
                } else {
                    ""
                }
            );
            partial
        });
        let cache = self.cache();
        let options = RunOptions {
            resume,
            retries: self.retries,
            cell_deadline: self.cell_deadline,
            stream_log: Some(self.run_log_path.clone()),
            failpoint: Failpoint::from_env(),
            cache,
        };
        let results = engine
            .run_with(matrix, &options)
            .unwrap_or_else(|e| panic!("{e}"));
        if results.restored > 0 {
            println!(
                "[restored {} cells from the resume log; re-simulated {}]",
                results.restored,
                results.cells.len() as u64 - results.restored
            );
        }
        if let Some(cache) = &options.cache {
            let misses = results.cells.len() as u64 - results.cached - results.restored;
            println!(
                "[result cache: hits={} misses={} at {}]",
                results.cached,
                misses,
                cache.dir().display()
            );
        }
        results
    }

    /// The devices the run covers: the four paper boards (the canonical
    /// figure digests are pinned to that sweep), or the set picked by
    /// `--device` via [`Device::select`] — matched case-insensitively
    /// as a substring of the device label or preset name (`visionfive`
    /// selects the StarFive VisionFive), with commas for an intentional
    /// multi-select (`--device mango,sg2044`).
    ///
    /// # Panics
    ///
    /// Panics when the filter matches no device or is ambiguous,
    /// listing the candidates.
    #[must_use]
    pub fn devices(&self) -> Vec<Device> {
        let Some(filter) = &self.device_filter else {
            return Device::paper().to_vec();
        };
        Device::select(filter).unwrap_or_else(|e| panic!("--device: {e}"))
    }

    /// Write JSON rows (creating the parent directory), and report where.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_json(&self, json: &str) {
        if let Some(dir) = self.json_path.parent() {
            std::fs::create_dir_all(dir).expect("create results directory");
        }
        std::fs::write(&self.json_path, json).expect("write JSON results");
        println!("\n[json rows written to {}]", self.json_path.display());
    }

    /// Write an engine run's JSONL telemetry log, and report where.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_run_log(&self, results: &membound_core::runner::RunResults) {
        results
            .write_run_log(&self.run_log_path)
            .expect("write run log");
        println!(
            "[run log ({} cells, jobs={}, digest {}) written to {}]",
            results.cells.len(),
            results.jobs,
            results.combined_digest(),
            self.run_log_path.display()
        );
    }
}

/// The workload-scale note printed at the top of every figure.
#[must_use]
pub fn scale_banner(full: bool) -> &'static str {
    if full {
        "workload: paper-scale (--full)"
    } else {
        "workload: scaled-down default (pass --full for paper-scale sizes)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(full: bool) -> Args {
        Args {
            full,
            json_path: PathBuf::from("x.json"),
            jobs: None,
            device_filter: None,
            run_log_path: PathBuf::from("x.jsonl"),
            resume: None,
            retries: 0,
            cell_deadline: None,
            cache_dir: None,
        }
    }

    #[test]
    fn banners_differ() {
        assert_ne!(scale_banner(true), scale_banner(false));
    }

    #[test]
    fn device_filter_selects_by_loose_substring() {
        let mut a = args(false);
        // No filter: the four paper boards, never the what-if presets.
        assert_eq!(a.devices(), Device::paper().to_vec());
        a.device_filter = Some("visionfive".into());
        let picked = a.devices();
        assert_eq!(picked, vec![Device::StarFiveVisionFive]);
    }

    #[test]
    fn device_filter_exact_set_multi_selects() {
        let mut a = args(false);
        a.device_filter = Some("mango,sg2044".into());
        assert_eq!(
            a.devices(),
            vec![Device::MangoPiMqPro, Device::SophonSG2044]
        );
    }

    #[test]
    #[should_panic(expected = "no device matches")]
    fn unknown_device_filter_panics() {
        let mut a = args(false);
        a.device_filter = Some("cray-1".into());
        let _ = a.devices();
    }

    #[test]
    #[should_panic(expected = "ambiguous")]
    fn ambiguous_device_filter_panics() {
        let mut a = args(false);
        // "pi" is a substring of both Mango Pi MQ-Pro and Raspberry
        // Pi 4 — silently sweeping both used to corrupt single-device
        // figure runs.
        a.device_filter = Some("pi".into());
        let _ = a.devices();
    }

    #[test]
    fn engine_respects_explicit_jobs() {
        let mut a = args(false);
        a.jobs = Some(3);
        assert_eq!(a.engine().jobs(), 3);
    }
}
