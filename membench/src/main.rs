//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path membench/Cargo.toml -- \
//!     --workload <fig2_mango|triad_tlboff|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with spans off; `--trace 1` is the separate traced run that
//! reports the per-layer metrics and writes its spans to
//! `membench/out/`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See
//! `membench/README.md` for what each workload and metric means.

mod calib;
#[cfg(test)]
mod checks;
mod layers;
mod report;
mod serve;
mod sim;
mod sinks;
mod spans;
mod workloads;

use report::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

/// Every end-to-end metric, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_mrefs_per_s", "Mref/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Where runs write scratch files and traced spans (relative to the
/// repository root the benchmark runs from).
const OUT_DIR: &str = "membench/out";

/// What one run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub spans: Vec<spans::Span>,
    /// Set when the run could not measure at all; no result is printed.
    pub broken: Option<String>,
}

impl Outcome {
    pub fn new(metrics: Metrics, attempted: u64, failed: u64, notes: Vec<String>) -> Self {
        Self {
            metrics,
            attempted,
            failed,
            notes,
            spans: Vec::new(),
            broken: None,
        }
    }

    pub fn broken(why: String) -> Self {
        let mut o = Self::new(Metrics::default(), 0, 0, Vec::new());
        o.broken = Some(why);
        o
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: membench --workload <fig2_mango|triad_tlboff|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, out: &Path) -> Outcome {
    match (args.workload, args.trace) {
        (Workload::ServeMixed, false) => serve::run(out, args.seed),
        (Workload::ServeMixed, true) => serve::traced(out, args.seed),
        (w, false) => sim::run(w, args.seconds),
        (w, true) => sim::traced(w),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report::system_info());
    println!(
        "workload {} seed {} seconds {} trace {}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = run(&args, &out);
    if let Some(why) = &outcome.broken {
        eprintln!("benchmark could not run: {why}");
        return ExitCode::FAILURE;
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    let expected: Vec<(&str, &str)> = if args.trace {
        layers::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut metrics = Metrics::default();
    let mut missing = Vec::new();
    for (name, unit) in &expected {
        match outcome.metrics.get(name) {
            Some(v) => metrics.put(name, v, unit),
            None => missing.push(*name),
        }
    }
    if !missing.is_empty() {
        eprintln!("benchmark bug: metrics not measured: {missing:?}");
        return ExitCode::FAILURE;
    }
    if args.trace {
        let path = out.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match std::fs::write(&path, spans::render(&outcome.spans)) {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    print!("\n{}", metrics.render_table());
    let correct = outcome.failed == 0;
    println!(
        "{}",
        metrics.result_line(correct, outcome.attempted.max(1), outcome.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload serve_mixed --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::ServeMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload fig2_mango --trace 2").is_err());
        assert!(args("--workload fig2_mango --seconds").is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(layers::PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for n in names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
