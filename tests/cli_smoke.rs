//! End-to-end smoke tests for the `membound-cli` analytic surface:
//!
//! * `trace-ir` dumps a kernel's folded IR with a coverage estimate —
//!   near-total for a TLB-off streaming loop, zero with translation on
//!   (the fast-forward translation gate, DESIGN.md §15) — for every
//!   kernel family, gbmv included;
//! * `analytic-gate` proves digest identity between the analytic
//!   executor and forced replay, non-vacuously;
//! * `--analytic` / `--no-analytic` are accepted by the simulating
//!   commands and do not change reported results.

use std::process::Command;

const CLI_BIN: &str = env!("CARGO_BIN_EXE_membound-cli");

#[derive(serde::Deserialize)]
struct TraceIrRow {
    variant: String,
    nodes: u64,
    repeat: u64,
    coverage_percent: f64,
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(CLI_BIN)
        .args(args)
        .output()
        .expect("run membound-cli");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn trace_ir_folds_stream_and_estimates_coverage() {
    let (stdout, stderr, ok) = run(&[
        "trace-ir", "stream", "--device", "xeon", "--no-tlb", "--json",
    ]);
    assert!(ok, "trace-ir failed: {stderr}");
    let rows: Vec<TraceIrRow> = serde_json::from_str(stdout.trim()).expect("json rows");
    assert_eq!(rows.len(), 4, "one row per STREAM op");
    for row in &rows {
        assert!(row.nodes > 0, "{}: empty program", row.variant);
        assert!(
            row.repeat >= 1,
            "{}: the per-line loop must fold into a Repeat",
            row.variant
        );
        assert!(
            row.coverage_percent > 90.0,
            "{}: TLB-off unit-stride loops are the analytic headline case, got {:.1}%",
            row.variant,
            row.coverage_percent
        );
    }

    // Same kernel with translation on: the shape gates reject every
    // nonzero-stride loop, so the estimate collapses to zero.
    let (stdout, stderr, ok) = run(&["trace-ir", "stream", "--device", "xeon", "--json"]);
    assert!(ok, "trace-ir failed: {stderr}");
    let rows: Vec<TraceIrRow> = serde_json::from_str(stdout.trim()).expect("json rows");
    assert!(rows.iter().all(|r| r.coverage_percent == 0.0));
}

#[test]
fn trace_ir_records_the_gbmv_ladder() {
    let (stdout, stderr, ok) = run(&[
        "trace-ir", "gbmv", "--device", "rpi4", "-n", "512", "--no-tlb", "--json",
    ]);
    assert!(ok, "trace-ir gbmv failed: {stderr}");
    let rows: Vec<TraceIrRow> = serde_json::from_str(stdout.trim()).expect("json rows");
    let variants: Vec<&str> = rows.iter().map(|r| r.variant.as_str()).collect();
    assert_eq!(variants, ["Naive", "Blocked", "Parallel"]);
    for row in &rows {
        assert!(row.nodes > 0, "{}: empty program", row.variant);
        assert!(row.repeat >= 1, "{}: the band walk must fold", row.variant);
    }
}

#[test]
fn trace_ir_requires_a_known_kernel() {
    let (_, _, ok) = run(&["trace-ir"]);
    assert!(!ok);
    let (_, _, ok) = run(&["trace-ir", "fft"]);
    assert!(!ok);
}

#[test]
fn analytic_gate_passes_on_a_subset() {
    let (stdout, stderr, ok) = run(&[
        "analytic-gate",
        "--device",
        "mango",
        "--variant",
        "naive",
        "-n",
        "256",
    ]);
    assert!(ok, "analytic-gate failed: {stdout}\n{stderr}");
    assert!(
        stdout.contains("analytic gate passed"),
        "unexpected output: {stdout}"
    );
}

#[test]
fn analytic_flags_do_not_change_reported_results() {
    let (on, stderr, ok) = run(&[
        "stream",
        "--device",
        "mango",
        "--op",
        "triad",
        "--level",
        "dram",
        "--json",
        "--analytic",
    ]);
    assert!(ok, "stream --analytic failed: {stderr}");
    let (off, stderr, ok) = run(&[
        "stream",
        "--device",
        "mango",
        "--op",
        "triad",
        "--level",
        "dram",
        "--json",
        "--no-analytic",
    ]);
    assert!(ok, "stream --no-analytic failed: {stderr}");
    assert_eq!(on, off, "analytic execution must be result-invisible");
}
