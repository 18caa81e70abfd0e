//! The benchmark's own checks: pinned outputs match the program, and
//! every count metric repeats exactly.

use crate::layers::{LayerCounts, PER_LAYER};
use crate::report::Metrics;
use crate::serve::cold_order;
use crate::sim;
use crate::workloads::serve_specs::{self, cold_pool, warm, WARM_DIGEST};
use crate::workloads::{Workload, TRIAD_CELLS};
use membound_core::runner::{Cell, Engine, ExperimentMatrix};
use membound_core::{BlurConfig, BlurVariant};
use membound_sim::Device;

/// The deterministic count metrics of a traced run.
fn counts(m: &Metrics) -> Vec<(String, f64)> {
    PER_LAYER
        .iter()
        .filter(|(_, unit)| *unit == "count")
        .filter_map(|(name, _)| Some((name.to_string(), m.get(name)?)))
        .collect()
}

#[test]
fn serve_pins_match_one_shot_runs() {
    let mut wrong = Vec::new();
    for (spec, pin) in std::iter::once((warm(), WARM_DIGEST)).chain(cold_pool()) {
        let got = Engine::new(2)
            .run(&spec.matrix().expect("valid spec"))
            .combined_digest();
        if got != pin {
            wrong.push(format!("{} -> {got} (pinned {pin})", spec.label()));
        }
    }
    assert!(wrong.is_empty(), "stale pins:\n{}", wrong.join("\n"));
}

#[test]
fn cold_order_is_a_seeded_permutation_of_the_pool() {
    let a = cold_order(1);
    assert_eq!(a.len(), serve_specs::COLD_POOL_LEN);
    assert_eq!(a, cold_order(1));
    assert_ne!(a, cold_order(2));
    let mut labels: Vec<String> = a.iter().map(|(s, _)| format!("{s:?}")).collect();
    let mut pool: Vec<String> = cold_pool().iter().map(|(s, _)| format!("{s:?}")).collect();
    labels.sort();
    pool.sort();
    assert_eq!(labels, pool);
}

/// The triad pins are the analytic executor's digests; prove them equal
/// to forced per-element replay. Slow (the Xeon cell replays 2^28
/// elements): `cargo test --release -- --ignored`.
#[test]
#[ignore]
fn triad_pins_equal_forced_replay() {
    for cell in TRIAD_CELLS {
        let work = cell.work();
        let replay = work.simulate(&work.machine(work.spec().clone()).with_analytic(false));
        assert_eq!(
            format!("{:016x}", replay.stats_digest()),
            cell.digest,
            "{}",
            work.label()
        );
    }
}

#[test]
fn triad_counts_repeat_exactly() {
    let a = sim::traced_counts(Workload::TriadTlbOff);
    let b = sim::traced_counts(Workload::TriadTlbOff);
    assert_eq!(counts(&a), counts(&b));
}

#[test]
fn fig2_counts_repeat_exactly() {
    let a = sim::traced_counts(Workload::Fig2Mango);
    let b = sim::traced_counts(Workload::Fig2Mango);
    assert_eq!(counts(&a), counts(&b));
}

/// The fig6 matrix exactly as `fig6_blur --device xeon` builds it.
fn fig6_matrix() -> ExperimentMatrix {
    let device = Device::IntelXeon4310T;
    let spec = device.spec();
    let cfg = BlurConfig::small(1013, 1272);
    let panel = format!("{}x{}", cfg.height, cfg.width);
    let mut matrix = ExperimentMatrix::new("fig6_blur");
    for variant in BlurVariant::all() {
        matrix.push(Cell::blur(
            panel.clone(),
            device.label(),
            &spec,
            variant,
            cfg,
        ));
    }
    matrix
}

/// fig6's counters repeat exactly and do not depend on the engine's job
/// count (its pinned digest holds at both).
#[test]
fn fig6_counts_repeat_and_do_not_depend_on_jobs() {
    let counts = |jobs| {
        let results = Engine::new(jobs).run(&fig6_matrix());
        assert_eq!(results.combined_digest(), "a232853937fe2c5d");
        let reports: Vec<_> = results
            .cells
            .iter()
            .filter_map(|r| r.report().cloned())
            .collect();
        LayerCounts::of(&reports)
    };
    let a = counts(2);
    assert_eq!(a, counts(2));
    assert_eq!(a, counts(1));
}

#[test]
fn benchmark_json_declares_exactly_what_the_runs_report() {
    let v = serde_json::value_from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
    let list = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(|x| x.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|x| x.as_str()).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
        xs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), own(crate::END_TO_END));
    assert_eq!(list("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = v
        .get("workloads")
        .and_then(|x| x.as_array())
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|x| x.as_str())
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
