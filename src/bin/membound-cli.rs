//! `membound-cli` — run any kernel × variant × device combination from
//! the command line, natively or simulated.
//!
//! ```text
//! membound-cli devices
//! membound-cli stream    [--device xeon] [--op triad] [--level dram]
//! membound-cli transpose [--device all] [--variant dynamic] [-n 2048] [--block 64]
//! membound-cli blur      [--device starfive] [--variant memory] [--height 507 --width 636]
//! membound-cli native-stream    [--elements 4194304] [--threads 0]
//! membound-cli native-transpose [-n 1024] [--variant all] [--threads 0]
//! membound-cli native-blur      [--height 317 --width 397] [--variant all]
//! membound-cli trace-ir transpose|blur|gbmv|stream [--device xeon] [...]
//! membound-cli cache stats|gc|verify [--cache-dir <dir>]
//! membound-cli serve submit|status|cancel|shutdown --socket <path> [...]
//! ```
//!
//! `--device all` (the default) sweeps the paper's four devices;
//! `--variant all` sweeps a kernel's whole ladder; `--threads 0` means
//! "all host cores". Add `--json` to print machine-readable rows instead
//! of a table.

use membound::core::cache;
use membound::core::experiment::{simulate, simulate_stream_survey, stream_dram_gbps, CellKind};
use membound::core::metrics::{attach_speedups, Measurement};
use membound::core::report::{fmt_seconds, fmt_speedup, to_json, TextTable};
use membound::core::{
    blur_native, run_native_stream, transpose_native, BlurConfig, BlurVariant, GbmvConfig,
    GbmvVariant, SquareMatrix, StreamOp, StreamTrace, TransposeConfig, TransposeVariant,
};
use membound::image::generate;
use membound::parallel::Pool;
use membound::sim::{estimate_coverage, Device, DeviceSpec, Machine};
use membound::trace::{IrStats, RecordingSink, TraceOp, TraceSink};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: membound-cli <command> [options]\n\
         commands:\n\
         \x20 devices                         modelled device inventory\n\
         \x20 stream                          simulated STREAM survey\n\
         \x20 transpose                       simulated transposition ladder\n\
         \x20 blur                            simulated Gaussian-blur ladder\n\
         \x20 native-stream                   STREAM on this host\n\
         \x20 native-transpose                transposition on this host\n\
         \x20 native-blur                     Gaussian blur on this host\n\
         \x20 validate-runlog <path>          check a JSONL run log (accepts schema v1..=v7)\n\
         \x20 strided-gate                    prove batched strided replay matches per-element\n\
         \x20 analytic-gate                   prove analytic fast-forward matches full replay\n\
         \x20 trace-ir transpose|blur|gbmv|stream   dump a kernel's lowered trace IR and coverage\n\
         \x20 cache stats|gc|verify           inspect or reclaim a persistent result cache\n\
         \x20                                 (--cache-dir <dir>, or MEMBOUND_CACHE_DIR)\n\
         \x20 serve submit|status|cancel|shutdown   talk to a membound-serve daemon\n\
         \x20                                 (--socket <path>; see `serve --help`)\n\
         common options:\n\
         \x20 --device mangopi|starfive|rpi4|xeon|sg2044|montecimone|paper|all\n\
         \x20                                           (default: all)\n\
         \x20 --variant <ladder variant>|all            (default: all)\n\
         \x20 --threads N                               native thread count (0 = host)\n\
         \x20 --json                                    machine-readable output\n\
         \x20 --analytic / --no-analytic                force the analytic trace-IR executor\n\
         \x20                                           on/off (default: MEMBOUND_ANALYTIC, on)\n\
         kernel options:\n\
         \x20 stream:    --op copy|scale|add|triad|all  --level l1|l2|l3|dram|all\n\
         \x20 transpose: -n SIZE  --block SIZE\n\
         \x20 gbmv:      -n ORDER                      (trace-ir only)\n\
         \x20 blur:      --height H --width W --filter F"
    );
    std::process::exit(2);
}

#[derive(Debug)]
struct Opts {
    flags: HashMap<String, String>,
    json: bool,
    /// `--analytic` / `--no-analytic`: force the analytic trace-IR
    /// executor on every machine this invocation builds (`None` leaves
    /// the `MEMBOUND_ANALYTIC` environment default in force).
    analytic: Option<bool>,
}

impl Opts {
    fn parse(args: &[String]) -> Self {
        let mut flags = HashMap::new();
        let mut json = false;
        let mut analytic = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => json = true,
                "--analytic" => analytic = Some(true),
                "--no-analytic" => analytic = Some(false),
                "--no-tlb" => {
                    flags.insert("no-tlb".to_owned(), "1".to_owned());
                }
                "--help" | "-h" => usage(),
                flag if flag.starts_with('-') => {
                    let value = it.next().unwrap_or_else(|| {
                        eprintln!("flag {flag} needs a value");
                        usage()
                    });
                    flags.insert(flag.trim_start_matches('-').to_owned(), value.clone());
                }
                other => {
                    eprintln!("unexpected argument: {other}");
                    usage();
                }
            }
        }
        Self {
            flags,
            json,
            analytic,
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{key}: {v}");
                usage()
            }),
        }
    }

    fn devices(&self) -> Vec<Device> {
        match self.get("device").unwrap_or("all") {
            "all" => Device::all().to_vec(),
            "paper" => Device::paper().to_vec(),
            "mangopi" | "mango" | "d1" => vec![Device::MangoPiMqPro],
            "starfive" | "visionfive" | "jh7100" => vec![Device::StarFiveVisionFive],
            "rpi4" | "raspberrypi" | "arm" => vec![Device::RaspberryPi4],
            "xeon" | "x86" => vec![Device::IntelXeon4310T],
            "sg2044" | "sophon" => vec![Device::SophonSG2044],
            "montecimone" | "monte" | "cimone" | "u740" => vec![Device::MonteCimone],
            other => {
                eprintln!("unknown device: {other}");
                usage()
            }
        }
    }

    /// The blur workload from `--height`/`--width`/`--filter`.
    fn blur_config(&self, height: usize, width: usize) -> BlurConfig {
        BlurConfig {
            height: self.num("height", height),
            width: self.num("width", width),
            channels: 3,
            filter_size: self.num("filter", 19),
            sigma: None,
        }
    }

    /// A machine for `spec` honouring `--analytic` / `--no-analytic`.
    fn machine(&self, spec: DeviceSpec) -> Machine {
        let machine = Machine::new(spec);
        match self.analytic {
            Some(on) => machine.with_analytic(on),
            None => machine,
        }
    }

    fn pool(&self) -> Pool {
        match self.num::<u32>("threads", 0) {
            0 => Pool::host(),
            n => Pool::new(n),
        }
    }
}

fn transpose_variants(opts: &Opts) -> Vec<TransposeVariant> {
    match opts.get("variant").unwrap_or("all") {
        "all" => TransposeVariant::all().to_vec(),
        "naive" => vec![TransposeVariant::Naive],
        "parallel" => vec![TransposeVariant::Parallel],
        "blocking" => vec![TransposeVariant::Blocking],
        "manual" | "manual_blocking" => vec![TransposeVariant::ManualBlocking],
        "dynamic" => vec![TransposeVariant::Dynamic],
        other => {
            eprintln!("unknown transpose variant: {other}");
            usage()
        }
    }
}

fn blur_variants(opts: &Opts) -> Vec<BlurVariant> {
    match opts.get("variant").unwrap_or("all") {
        "all" => BlurVariant::all().to_vec(),
        "naive" => vec![BlurVariant::Naive],
        "unit-stride" | "unit_stride" | "unitstride" => vec![BlurVariant::UnitStride],
        "1d" | "1d_kernels" | "onedim" => vec![BlurVariant::OneDimKernels],
        "memory" => vec![BlurVariant::Memory],
        "parallel" => vec![BlurVariant::Parallel],
        other => {
            eprintln!("unknown blur variant: {other}");
            usage()
        }
    }
}

fn gbmv_variants(opts: &Opts) -> Vec<GbmvVariant> {
    match opts.get("variant").unwrap_or("all") {
        "all" => GbmvVariant::all().to_vec(),
        "naive" => vec![GbmvVariant::Naive],
        "blocked" => vec![GbmvVariant::Blocked],
        "parallel" => vec![GbmvVariant::Parallel],
        other => {
            eprintln!("unknown gbmv variant: {other}");
            usage()
        }
    }
}

fn emit(opts: &Opts, table: TextTable, rows: &[Measurement]) {
    if opts.json {
        println!("{}", to_json(&rows));
    } else {
        println!("{}", table.render());
    }
}

fn cmd_devices(opts: &Opts) {
    let mut table = TextTable::new(
        ["device", "ISA", "cores", "freq GHz", "DRAM GB/s", "RAM GB"]
            .map(String::from)
            .to_vec(),
    );
    for device in opts.devices() {
        let spec = device.spec();
        table.row(vec![
            device.label().into(),
            spec.isa.clone(),
            spec.cores.to_string(),
            format!("{:.1}", spec.core.freq_ghz),
            format!("{:.1}", spec.dram_gbps()),
            (spec.dram_capacity_bytes >> 30).to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn cmd_stream(opts: &Opts) {
    let level_filter = opts.get("level").unwrap_or("all").to_lowercase();
    let op_filter = opts.get("op").unwrap_or("all").to_lowercase();
    let mut table = TextTable::new(["device", "level", "op", "GB/s"].map(String::from).to_vec());
    for device in opts.devices() {
        let machine = opts.machine(device.spec());
        if level_filter == "all" && op_filter == "all" {
            for row in simulate_stream_survey(&machine) {
                for (op, g) in StreamOp::all().iter().zip(row.gbps) {
                    table.row(vec![
                        device.label().into(),
                        row.level.clone(),
                        op.label().into(),
                        format!("{g:.2}"),
                    ]);
                }
            }
            continue;
        }
        let ops: Vec<StreamOp> = StreamOp::all()
            .into_iter()
            .filter(|o| op_filter == "all" || o.label().to_lowercase() == op_filter)
            .collect();
        if ops.is_empty() {
            eprintln!("unknown op: {op_filter}");
            usage();
        }
        let level = match level_filter.as_str() {
            "dram" => None,
            "l1" | "l1d" => Some(0),
            "l2" => Some(1),
            "l3" => Some(2),
            other => {
                eprintln!("unknown level: {other}");
                usage()
            }
        };
        if let Some(k) = level {
            if k >= machine.spec().caches.len() {
                table.row(vec![
                    device.label().into(),
                    level_filter.to_uppercase(),
                    "-".into(),
                    "level not present".into(),
                ]);
                continue;
            }
        }
        for op in ops {
            let gbps = simulate(&machine, &CellKind::Stream { op, level })
                .gbps()
                .expect("STREAM cells measure bandwidth");
            table.row(vec![
                device.label().into(),
                level_filter.to_uppercase(),
                op.label().into(),
                format!("{gbps:.2}"),
            ]);
        }
    }
    println!("{}", table.render());
}

/// Simulate a ladder of `cells` on every selected device, with speedups
/// over its first variant and the §3.3 bandwidth utilization.
fn cmd_ladder(opts: &Opts, cells: &[(&'static str, CellKind)]) {
    let mut table = TextTable::new(
        ["device", "variant", "threads", "time", "speedup", "BW util"]
            .map(String::from)
            .to_vec(),
    );
    let mut all_rows = Vec::new();
    for device in opts.devices() {
        let machine = opts.machine(device.spec());
        let stream = stream_dram_gbps(&machine);
        let mut ladder = Vec::new();
        for (variant, kind) in cells {
            match simulate(&machine, kind).into_report() {
                Some(r) => {
                    let mut m = Measurement::new(variant, device.label(), r.threads, r.seconds);
                    m.bandwidth_utilization = kind
                        .nominal_bytes()
                        .map(|b| r.bandwidth_utilization(b, stream));
                    ladder.push(m);
                }
                None => table.row(vec![
                    device.label().into(),
                    (*variant).into(),
                    "-".into(),
                    "does not fit in memory".into(),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
        attach_speedups(&mut ladder);
        for m in &ladder {
            table.row(vec![
                m.device.clone(),
                m.variant.clone(),
                m.threads.to_string(),
                fmt_seconds(m.seconds),
                fmt_speedup(m.speedup_vs_naive),
                format!("{:.3}", m.bandwidth_utilization.unwrap_or(0.0)),
            ]);
        }
        all_rows.extend(ladder);
    }
    emit(opts, table, &all_rows);
}

fn cmd_native_stream(opts: &Opts) {
    let elements: usize = opts.num("elements", 4 << 20);
    let pool = opts.pool();
    let mut table = TextTable::new(["op", "GB/s", "best pass"].map(String::from).to_vec());
    for op in StreamOp::all() {
        let r = run_native_stream(op, elements, 5, &pool);
        table.row(vec![
            op.label().into(),
            format!("{:.2}", r.gbps),
            fmt_seconds(r.best_seconds),
        ]);
    }
    println!(
        "host STREAM, {} threads, {} elements/array\n{}",
        pool.threads(),
        elements,
        table.render()
    );
}

fn cmd_native_transpose(opts: &Opts) {
    let n: usize = opts.num("n", 1024);
    let block: usize = opts.num("block", 64);
    let cfg = TransposeConfig::with_block(n, block);
    let pool = opts.pool();
    let mut table = TextTable::new(["variant", "time", "speedup"].map(String::from).to_vec());
    let mut ladder = Vec::new();
    for variant in transpose_variants(opts) {
        let mut m = SquareMatrix::indexed(n);
        let t = transpose_native(&mut m, variant, cfg, &pool);
        ladder.push(Measurement::new(
            variant.label(),
            "host",
            pool.threads(),
            t.as_secs_f64(),
        ));
    }
    attach_speedups(&mut ladder);
    for m in &ladder {
        table.row(vec![
            m.variant.clone(),
            fmt_seconds(m.seconds),
            fmt_speedup(m.speedup_vs_naive),
        ]);
    }
    println!(
        "host transpose {n}x{n}, block {block}, {} threads\n{}",
        pool.threads(),
        table.render()
    );
}

fn cmd_native_blur(opts: &Opts) {
    let cfg = BlurConfig {
        height: opts.num("height", 317),
        width: opts.num("width", 397),
        channels: 3,
        filter_size: opts.num("filter", 19),
        sigma: None,
    };
    let pool = opts.pool();
    let src = generate::test_pattern(cfg.height, cfg.width, cfg.channels);
    let mut table = TextTable::new(["variant", "time", "speedup"].map(String::from).to_vec());
    let mut ladder = Vec::new();
    for variant in blur_variants(opts) {
        let (_, t) = blur_native(&src, variant, &cfg, &pool);
        ladder.push(Measurement::new(
            variant.label(),
            "host",
            pool.threads(),
            t.as_secs_f64(),
        ));
    }
    attach_speedups(&mut ladder);
    for m in &ladder {
        table.row(vec![
            m.variant.clone(),
            fmt_seconds(m.seconds),
            fmt_speedup(m.speedup_vs_naive),
        ]);
    }
    println!(
        "host blur {}x{}x3, F={}, {} threads\n{}",
        cfg.height,
        cfg.width,
        cfg.filter_size,
        pool.threads(),
        table.render()
    );
}

/// `validate-runlog <path>`: parse and schema-check an engine run log,
/// printing its summary (figure, cells, combined digest). Exits nonzero
/// on any violation, which is what the CI figure-smoke job keys on.
fn cmd_validate_runlog(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("validate-runlog requires a path to a .jsonl run log");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match membound::core::telemetry::validate_run_log(&text) {
        Ok(summary) => {
            println!(
                "{path}: valid run log (schema v{})\n\
                 \x20 figure:  {}\n\
                 \x20 jobs:    {}\n\
                 \x20 cells:   {} ({} ok, {} cached, {} resumed)\n\
                 \x20 digest:  {}",
                summary.schema_version,
                summary.figure,
                summary.jobs,
                summary.cells,
                summary.ok_cells,
                summary.cached_cells,
                summary.resumed_cells,
                summary.combined_digest,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID run log: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `strided-gate`: simulate transposition cells twice — once on the
/// default machine (column walks execute as `access_strided` batches)
/// and once on a [`Machine::without_fastpath`] reference that dispatches
/// every batch element by element — and require bit-identical stats
/// digests. Exits nonzero on any divergence, or if no cell actually
/// exercised the batched path; the CI bench-smoke job keys on this.
fn cmd_strided_gate(opts: &Opts) -> ExitCode {
    let n: usize = opts.num("n", 1024);
    let cfg = TransposeConfig::new(n);
    let mut table = TextTable::new(
        [
            "device",
            "variant",
            "batches",
            "batched digest",
            "reference digest",
            "gate",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut failures = 0u32;
    let mut batches_seen = 0u64;
    for device in opts.devices() {
        let machine = opts.machine(device.spec());
        let reference = Machine::new(device.spec()).without_fastpath();
        let mut cells = transpose_cells(opts, cfg);
        // One gbmv cell: the naïve anti-diagonal walk is the widest
        // constant stride any kernel feeds the bulk executors.
        cells.push((
            "gbmv Naive",
            CellKind::Gbmv {
                variant: GbmvVariant::Naive,
                cfg: GbmvConfig::new(n.max(128)),
            },
        ));
        for (variant, kind) in cells {
            let (Some(batched), Some(reference)) = (
                simulate(&machine, &kind).into_report(),
                simulate(&reference, &kind).into_report(),
            ) else {
                table.row(vec![
                    device.label().into(),
                    variant.into(),
                    "-".into(),
                    "does not fit in memory".into(),
                    "-".into(),
                    "skip".into(),
                ]);
                continue;
            };
            let ok = batched.stats_digest() == reference.stats_digest();
            failures += u32::from(!ok);
            batches_seen += batched.strided_batches;
            table.row(vec![
                device.label().into(),
                variant.into(),
                batched.strided_batches.to_string(),
                format!("{:016x}", batched.stats_digest()),
                format!("{:016x}", reference.stats_digest()),
                if ok { "ok" } else { "DIVERGED" }.into(),
            ]);
        }
    }
    println!("strided gate, {n}x{n} transposition\n{}", table.render());
    if failures > 0 {
        eprintln!(
            "strided gate FAILED: {failures} cell(s) diverged from the per-element reference"
        );
        return ExitCode::FAILURE;
    }
    if batches_seen == 0 {
        eprintln!(
            "strided gate FAILED: no cell executed a strided batch — the gate proved nothing"
        );
        return ExitCode::FAILURE;
    }
    println!("strided gate passed: {batches_seen} batches, all digests bit-identical");
    ExitCode::SUCCESS
}

/// The `--variant`-selected transpose cells, labelled by variant.
fn transpose_cells(opts: &Opts, cfg: TransposeConfig) -> Vec<(&'static str, CellKind)> {
    transpose_variants(opts)
        .into_iter()
        .map(|variant| (variant.label(), CellKind::Transpose { variant, cfg }))
        .collect()
}

/// The `--variant`-selected blur cells, labelled by variant.
fn blur_cells(opts: &Opts, cfg: BlurConfig) -> Vec<(&'static str, CellKind)> {
    blur_variants(opts)
        .into_iter()
        .map(|variant| (variant.label(), CellKind::Blur { variant, cfg }))
        .collect()
}

#[derive(serde::Serialize)]
struct TraceIrRow {
    device: String,
    variant: String,
    nodes: u64,
    access: u64,
    range: u64,
    strided: u64,
    strided_rmw: u64,
    repeat: u64,
    max_depth: u32,
    coverage_percent: f64,
}

/// Record core 0's emission of each cell's kernel program on `spec`
/// into a folded IR program.
fn record_core0(
    spec: &DeviceSpec,
    cells: Vec<(&'static str, CellKind)>,
) -> Vec<(&'static str, Vec<TraceOp>)> {
    cells
        .into_iter()
        .map(|(variant, kind)| {
            let mut sink = RecordingSink::new();
            kind.program(spec).emit(0, &mut sink);
            (variant, sink.finish())
        })
        .collect()
}

/// `trace-ir transpose|blur|gbmv|stream`: dump the lowered trace IR of a
/// kernel's core-0 emission — folded node counts, repeat nesting depth,
/// and the static analytic-coverage estimate (the fraction of expanded
/// elements inside loops that pass the fast-forward shape gates on the
/// selected device). `--no-tlb` estimates against the device with
/// translation disabled — the regime where nonzero-stride loops become
/// eligible (DESIGN.md §15).
fn cmd_trace_ir(kernel: &str, opts: &Opts) -> ExitCode {
    let mut table = TextTable::new(
        [
            "device", "variant", "nodes", "access", "range", "strided", "rmw", "repeat", "depth",
            "analytic",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut rows = Vec::new();
    for device in opts.devices() {
        let spec = if opts.get("no-tlb").is_some() {
            device.spec().without_tlb()
        } else {
            device.spec()
        };
        let cells = match kernel {
            "transpose" | "fig2" => {
                let cfg = TransposeConfig::with_block(opts.num("n", 2048), opts.num("block", 64));
                record_core0(&spec, transpose_cells(opts, cfg))
            }
            "blur" | "fig6" => record_core0(&spec, blur_cells(opts, opts.blur_config(507, 636))),
            "gbmv" => {
                let cfg = GbmvConfig::new(opts.num("n", 4096));
                let cells = gbmv_variants(opts)
                    .into_iter()
                    .map(|variant| (variant.label(), CellKind::Gbmv { variant, cfg }))
                    .collect();
                record_core0(&spec, cells)
            }
            "stream" => {
                let elements: u64 = opts.num("elements", 4 << 20);
                let filter = opts.get("op").unwrap_or("all").to_lowercase();
                let ops: Vec<StreamOp> = StreamOp::all()
                    .into_iter()
                    .filter(|o| filter == "all" || o.label().to_lowercase() == filter)
                    .collect();
                if ops.is_empty() {
                    eprintln!("unknown stream op: {filter}");
                    usage();
                }
                ops.into_iter()
                    .map(|op| {
                        let t = StreamTrace::new(op, elements);
                        let mut sink = RecordingSink::new();
                        t.trace_pass(&mut sink, 0, elements);
                        (op.label(), sink.finish())
                    })
                    .collect()
            }
            other => {
                eprintln!(
                    "trace-ir: unknown kernel {other} (expected transpose, blur, gbmv or stream)"
                );
                return ExitCode::from(2);
            }
        };
        for (variant, program) in cells {
            let stats = IrStats::of(&program);
            let cov = estimate_coverage(&spec, &program);
            table.row(vec![
                device.label().into(),
                variant.into(),
                stats.total_nodes().to_string(),
                stats.access.to_string(),
                stats.range.to_string(),
                stats.strided.to_string(),
                stats.strided_rmw.to_string(),
                stats.repeat.to_string(),
                stats.max_depth.to_string(),
                format!("{:.1}%", cov.percent()),
            ]);
            rows.push(TraceIrRow {
                device: device.label().to_owned(),
                variant: variant.to_owned(),
                nodes: stats.total_nodes(),
                access: stats.access,
                range: stats.range,
                strided: stats.strided,
                strided_rmw: stats.strided_rmw,
                repeat: stats.repeat,
                max_depth: stats.max_depth,
                coverage_percent: cov.percent(),
            });
        }
    }
    if opts.json {
        println!("{}", to_json(&rows));
    } else {
        println!("trace IR, core 0 emission\n{}", table.render());
        println!(
            "analytic = static fast-forward coverage estimate (elements in loops\n\
             passing the shape gates; runtime warm-up can still fall back)"
        );
    }
    ExitCode::SUCCESS
}

/// `analytic-gate`: prove the analytic trace-IR executor is
/// digest-invisible — every figure cell simulated with fast-forward
/// enabled must produce byte-identical statistics to forced per-element
/// replay — and non-vacuous: a TLB-off streaming workload must actually
/// fast-forward (`analytic_ops > 0`), or the equality above proved
/// nothing.
fn cmd_analytic_gate(opts: &Opts) -> ExitCode {
    let cfg_t = TransposeConfig::new(opts.num("n", 512));
    let cfg_b = opts.blur_config(127, 159);
    let mut table = TextTable::new(
        [
            "figure",
            "device",
            "variant",
            "analytic digest",
            "replay digest",
            "gate",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut failures = 0u32;
    for device in opts.devices() {
        let on = Machine::new(device.spec()).with_analytic(true);
        let off = Machine::new(device.spec()).with_analytic(false);
        let fig2 = transpose_cells(opts, cfg_t)
            .into_iter()
            .map(|c| ("fig2", c));
        let fig6 = blur_cells(opts, cfg_b).into_iter().map(|c| ("fig6", c));
        // One gbmv cell per device, so the third kernel family passes
        // the same gate.
        let gbmv = CellKind::Gbmv {
            variant: GbmvVariant::Blocked,
            cfg: GbmvConfig::new(opts.num("n", 512).max(128)),
        };
        for (figure, (variant, kind)) in fig2.chain(fig6).chain([("gbmv", ("Blocked", gbmv))]) {
            let (Some(on), Some(off)) = (
                simulate(&on, &kind).into_report(),
                simulate(&off, &kind).into_report(),
            ) else {
                table.row(vec![
                    figure.into(),
                    device.label().into(),
                    variant.into(),
                    "does not fit in memory".into(),
                    "-".into(),
                    "skip".into(),
                ]);
                continue;
            };
            let ok = on.stats_digest() == off.stats_digest();
            failures += u32::from(!ok);
            table.row(vec![
                figure.into(),
                device.label().into(),
                variant.into(),
                format!("{:016x}", on.stats_digest()),
                format!("{:016x}", off.stats_digest()),
                if ok { "ok" } else { "DIVERGED" }.into(),
            ]);
        }
    }
    println!("analytic gate\n{}", table.render());
    if failures > 0 {
        eprintln!("analytic gate FAILED: {failures} cell(s) diverged from forced replay");
        return ExitCode::FAILURE;
    }
    // Non-vacuity: the figures run with translation on, where the
    // executor proves nothing and falls back (by design). A TLB-off
    // single-pass triad must demonstrably fast-forward, or the digest
    // equality above was vacuous.
    let spec = Device::IntelXeon4310T.spec().without_tlb();
    let n = 1u64 << 25;
    let triad = move |_tid: u32, sink: &mut membound::sim::CorePipeline| {
        let mut i = 0;
        while i < n {
            let hi = (i + 1024).min(n);
            let bytes = (hi - i) * 8;
            sink.load_range((1 << 41) + i * 8, bytes);
            sink.load_range((1 << 42) + i * 8, bytes);
            sink.store_range((3 << 41) + i * 8, bytes);
            i = hi;
        }
    };
    let on = Machine::new(spec.clone())
        .with_analytic(true)
        .simulate(1, triad);
    let off = Machine::new(spec).with_analytic(false).simulate(1, triad);
    if on.stats_digest() != off.stats_digest() {
        eprintln!(
            "analytic gate FAILED: triad digests diverged ({:016x} != {:016x})",
            on.stats_digest(),
            off.stats_digest()
        );
        return ExitCode::FAILURE;
    }
    if on.analytic_ops == 0 {
        eprintln!(
            "analytic gate FAILED: the TLB-off triad never fast-forwarded — the gate proved nothing"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "analytic gate passed: {} elements fast-forwarded, all digests bit-identical",
        on.analytic_ops
    );
    ExitCode::SUCCESS
}

/// `cache stats|gc|verify`: inspect, reclaim, or integrity-check the
/// persistent result cache (DESIGN.md §12). The directory comes from
/// `--cache-dir`, falling back to `MEMBOUND_CACHE_DIR`. `verify` is
/// read-only and exits nonzero iff any object fails verification —
/// that is what the CI cache-incremental job keys on; stale entries
/// and index damage are recoverable bookkeeping, reported but clean.
fn cmd_cache(args: &[String]) -> ExitCode {
    let Some(action) = args.first().map(String::as_str) else {
        eprintln!("cache requires an action: stats, gc, or verify");
        return ExitCode::from(2);
    };
    let opts = Opts::parse(&args[1..]);
    let dir = opts.get("cache-dir").map(PathBuf::from).or_else(|| {
        std::env::var_os("MEMBOUND_CACHE_DIR")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    });
    let Some(dir) = dir else {
        eprintln!("cache {action}: pass --cache-dir <dir> or set MEMBOUND_CACHE_DIR");
        return ExitCode::from(2);
    };
    let fingerprint = cache::default_fingerprint();
    match action {
        "stats" | "verify" => {
            let s = match cache::survey(&dir, fingerprint) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cache {action} at {}: {e}", dir.display());
                    return ExitCode::from(2);
                }
            };
            println!(
                "result cache at {} (fingerprint {fingerprint})\n\
                 \x20 live:          {}\n\
                 \x20 stale:         {}\n\
                 \x20 corrupt:       {}\n\
                 \x20 temp files:    {}\n\
                 \x20 unindexed:     {}\n\
                 \x20 dangling:      {}\n\
                 \x20 index garbage: {}\n\
                 \x20 object bytes:  {}",
                dir.display(),
                s.live,
                s.stale,
                s.corrupt,
                s.temps,
                s.unindexed,
                s.dangling,
                s.index_garbage,
                s.object_bytes,
            );
            for problem in &s.problems {
                eprintln!("corrupt: {problem}");
            }
            if action == "verify" && !s.is_clean() {
                eprintln!("cache verify FAILED: {} corrupt object(s)", s.corrupt);
                return ExitCode::FAILURE;
            }
            if action == "verify" {
                println!("cache verify passed: every object verified");
            }
            ExitCode::SUCCESS
        }
        "gc" => match cache::gc(&dir, fingerprint) {
            Ok(out) => {
                println!(
                    "cache gc at {}: kept {} live, removed {} stale + {} corrupt + {} temp",
                    dir.display(),
                    out.kept,
                    out.removed_stale,
                    out.removed_corrupt,
                    out.removed_temps,
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cache gc at {}: {e}", dir.display());
                ExitCode::from(2)
            }
        },
        other => {
            eprintln!("unknown cache action: {other} (expected stats, gc, or verify)");
            ExitCode::from(2)
        }
    }
}

/// Usage of the `serve` client subcommands.
fn serve_usage() -> ! {
    eprintln!(
        "usage: membound-cli serve <action> --socket <path> [options]\n\
         actions:\n\
         \x20 submit    run a job on the daemon and stream its telemetry\n\
         \x20           --figure fig2|fig6|ladder      (default: fig2)\n\
         \x20           --full                         paper-scale workload sizes\n\
         \x20           --device <filter>              restrict the device axis\n\
         \x20           --sizes N,N,... --block N      ladder workload (figure `ladder`)\n\
         \x20           --priority N                   higher runs first (default 0)\n\
         \x20           --retries N  --cell-deadline S engine fault-tolerance policy\n\
         \x20           --failpoint <spec>             per-job fault injection\n\
         \x20           --quiet                        suppress streamed telemetry lines\n\
         \x20 status    print the daemon's job table   [--job N]\n\
         \x20 cancel    cancel a queued job            --job N\n\
         \x20 shutdown  ask the daemon to drain and exit\n\
         exit codes: 0 done, 1 job failed, 2 usage/protocol error, 3 rejected\n\
         (a `queue_full` rejection prints its retry_after_ms hint)"
    );
    std::process::exit(2);
}

/// Parse `serve submit` flags into a spec + options pair.
fn serve_submit_params(
    opts: &Opts,
    full: bool,
    quiet: bool,
) -> (
    membound::serve::JobSpec,
    membound::serve::client::SubmitOptions,
) {
    use membound::serve::JobSpec;
    let device = opts.get("device").map(str::to_owned);
    let spec = match opts.get("figure").unwrap_or("fig2") {
        "fig2" => JobSpec::Fig2 { full, device },
        "fig6" => JobSpec::Fig6 { full, device },
        "ladder" => {
            let sizes: Vec<usize> = opts
                .get("sizes")
                .unwrap_or("96,128")
                .split(',')
                .map(|s| {
                    s.trim().parse().unwrap_or_else(|_| {
                        eprintln!("--sizes requires comma-separated integers, got {s:?}");
                        serve_usage()
                    })
                })
                .collect();
            JobSpec::TransposeLadder {
                sizes,
                block: opts.num("block", 16),
                device,
            }
        }
        other => {
            eprintln!("unknown figure: {other} (expected fig2, fig6 or ladder)");
            serve_usage()
        }
    };
    let options = membound::serve::client::SubmitOptions {
        priority: opts.num("priority", 0),
        retries: opts.num("retries", 0),
        cell_deadline: opts.get("cell-deadline").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--cell-deadline requires seconds, got {v:?}");
                serve_usage()
            })
        }),
        failpoint: opts.get("failpoint").map(str::to_owned),
        stream: !quiet,
    };
    (spec, options)
}

/// `serve submit|status|cancel|shutdown`: the daemon's line client.
fn cmd_serve(args: &[String]) -> ExitCode {
    use membound::serve::client::SubmitOutcome;
    use membound::serve::Client;

    let Some(action) = args.first().map(String::as_str) else {
        serve_usage()
    };
    if action == "--help" || action == "-h" {
        serve_usage()
    }
    // `--full` and `--quiet` are valueless flags the generic Opts
    // parser would mis-eat; strip them first.
    let mut rest: Vec<String> = Vec::new();
    let mut full = false;
    let mut quiet = false;
    for a in &args[1..] {
        match a.as_str() {
            "--full" => full = true,
            "--quiet" => quiet = true,
            _ => rest.push(a.clone()),
        }
    }
    let opts = Opts::parse(&rest);
    let Some(socket) = opts.get("socket").map(PathBuf::from) else {
        eprintln!("serve {action}: --socket <path> is required");
        serve_usage()
    };
    let mut client = match Client::connect(&socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "serve {action}: cannot connect to {}: {e}",
                socket.display()
            );
            return ExitCode::from(2);
        }
    };
    let exchange = match action {
        "submit" => {
            let (spec, options) = serve_submit_params(&opts, full, quiet);
            client.submit(&spec, &options, |line| println!("{line}"))
        }
        "status" => {
            let job = opts.get("job").map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("--job requires a job id, got {v:?}");
                    serve_usage()
                })
            });
            match client.status(job) {
                Err(e) => Err(e),
                Ok(jobs) => {
                    let mut table = TextTable::new(
                        ["job", "label", "state", "prio", "cells", "cached", "digest"]
                            .map(String::from)
                            .to_vec(),
                    );
                    for j in &jobs {
                        table.row(vec![
                            j.job.to_string(),
                            j.label.clone(),
                            j.state.clone(),
                            j.priority.to_string(),
                            j.cells.to_string(),
                            j.cached.to_string(),
                            j.digest.clone().unwrap_or_else(|| "-".into()),
                        ]);
                    }
                    println!("{}", table.render());
                    return ExitCode::SUCCESS;
                }
            }
        }
        "cancel" => {
            let Some(job) = opts.get("job").and_then(|v| v.parse().ok()) else {
                eprintln!("serve cancel: --job <id> is required");
                serve_usage()
            };
            match client.cancel(job) {
                Err(e) => Err(e),
                Ok(Ok(())) => {
                    println!("[job {job} cancelled]");
                    return ExitCode::SUCCESS;
                }
                Ok(Err(why)) => {
                    eprintln!("serve cancel: {why}");
                    return ExitCode::from(2);
                }
            }
        }
        "shutdown" => match client.shutdown() {
            Err(e) => Err(e),
            Ok(()) => {
                println!("[daemon draining]");
                return ExitCode::SUCCESS;
            }
        },
        other => {
            eprintln!("unknown serve action: {other}");
            serve_usage()
        }
    };
    match exchange {
        Ok(SubmitOutcome::Done {
            job,
            status,
            digest,
            cells,
            cached,
            misses,
            error,
        }) => {
            println!(
                "[job {job} {status}: cells={cells} cached={cached} misses={misses} digest={}]",
                digest.as_deref().unwrap_or("-")
            );
            if let Some(error) = error {
                eprintln!("[job {job} error: {error}]");
            }
            if status == "done" {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(SubmitOutcome::Rejected {
            reason,
            retry_after_ms,
        }) => {
            eprintln!(
                "[rejected: {reason}{}]",
                retry_after_ms.map_or(String::new(), |ms| format!(" retry_after_ms={ms}"))
            );
            ExitCode::from(3)
        }
        Ok(SubmitOutcome::Error { message }) => {
            eprintln!("serve {action}: {message}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("serve {action}: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    if cmd == "validate-runlog" {
        return cmd_validate_runlog(&args[1..]);
    }
    if cmd == "cache" {
        return cmd_cache(&args[1..]);
    }
    if cmd == "serve" {
        return cmd_serve(&args[1..]);
    }
    if cmd == "trace-ir" {
        let Some(kernel) = args.get(1).filter(|a| !a.starts_with('-')) else {
            eprintln!("trace-ir requires a kernel: transpose, blur, gbmv or stream");
            return ExitCode::from(2);
        };
        let opts = Opts::parse(&args[2..]);
        return cmd_trace_ir(kernel, &opts);
    }
    let opts = Opts::parse(&args[1..]);
    if cmd == "strided-gate" {
        return cmd_strided_gate(&opts);
    }
    if cmd == "analytic-gate" {
        return cmd_analytic_gate(&opts);
    }
    match cmd.as_str() {
        "devices" => cmd_devices(&opts),
        "stream" => cmd_stream(&opts),
        "transpose" => {
            let cfg = TransposeConfig::with_block(opts.num("n", 2048), opts.num("block", 64));
            cmd_ladder(&opts, &transpose_cells(&opts, cfg));
        }
        "blur" => cmd_ladder(&opts, &blur_cells(&opts, opts.blur_config(507, 636))),
        "native-stream" => cmd_native_stream(&opts),
        "native-transpose" => cmd_native_transpose(&opts),
        "native-blur" => cmd_native_blur(&opts),
        _ => usage(),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        Opts::parse(&owned)
    }

    #[test]
    fn flags_parse_into_the_map() {
        let o = opts(&["--device", "xeon", "-n", "512", "--json"]);
        assert_eq!(o.get("device"), Some("xeon"));
        assert_eq!(o.num::<usize>("n", 0), 512);
        assert!(o.json);
    }

    #[test]
    fn device_aliases_resolve() {
        assert_eq!(
            opts(&["--device", "mango"]).devices(),
            vec![Device::MangoPiMqPro]
        );
        assert_eq!(
            opts(&["--device", "jh7100"]).devices(),
            vec![Device::StarFiveVisionFive]
        );
        assert_eq!(
            opts(&["--device", "arm"]).devices(),
            vec![Device::RaspberryPi4]
        );
        assert_eq!(
            opts(&["--device", "sg2044"]).devices(),
            vec![Device::SophonSG2044]
        );
        assert_eq!(
            opts(&["--device", "u740"]).devices(),
            vec![Device::MonteCimone]
        );
        assert_eq!(opts(&[]).devices().len(), 6, "default sweeps all devices");
        assert_eq!(
            opts(&["--device", "paper"]).devices(),
            Device::paper().to_vec()
        );
    }

    #[test]
    fn variant_selectors_resolve() {
        let o = opts(&["--variant", "manual"]);
        assert_eq!(
            transpose_variants(&o),
            vec![TransposeVariant::ManualBlocking]
        );
        let o = opts(&["--variant", "1d"]);
        assert_eq!(blur_variants(&o), vec![BlurVariant::OneDimKernels]);
        let o = opts(&[]);
        assert_eq!(transpose_variants(&o).len(), 5);
        assert_eq!(blur_variants(&o).len(), 5);
    }

    #[test]
    fn numeric_defaults_apply() {
        let o = opts(&[]);
        assert_eq!(o.num::<usize>("n", 2048), 2048);
        assert_eq!(o.num::<u32>("threads", 0), 0);
    }

    #[test]
    fn pool_size_zero_means_host() {
        assert!(opts(&["--threads", "0"]).pool().threads() >= 1);
        assert_eq!(opts(&["--threads", "3"]).pool().threads(), 3);
    }
}
