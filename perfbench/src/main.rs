//! Two-clock benchmark of the MND-MST driver.
//!
//! One invocation runs one workload graph through `MndMstRunner::run` in a
//! closed loop (one run at a time, no client threads; the driver's 16 rank
//! threads are the system under test) for `--seconds`, checks every forest
//! against Kruskal, and prints each metric as a `metric <name> <value>
//! <unit>` line. The last line of standard output is the JSON result; it
//! carries the end-to-end metrics with `--trace 0` and the per-layer
//! metrics with `--trace 1`, which adds one traced run and the standalone
//! layer calls. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uk-crawl --seed 1 --seconds 20 --trace 1
//! ```

mod clocks;
mod layers;
mod report;
mod spans;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use mnd_graph::EdgeList;
use mnd_hypar::PhaseKind;
use mnd_kernels::kruskal_msf;
use mnd_kernels::msf::MsfResult;
use mnd_mst::MndMstReport;

use clocks::{process_cpu_s, InstructionCounter};
use report::{json_line, median, peak_rss_mb, spread_note, Host, Metrics};
use spans::SpanRecorder;
use workload::{Workload, RANKS, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <uk-crawl|gsh-scatter|road-sparse|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--scale-div <d>]";

/// Graph generations per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Repetitions of each standalone layer call; the median is reported.
const LAYER_REPS: usize = 3;

#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Overrides the workload's scale divisor (the self-test runs tiny
    /// graphs).
    scale_div: Option<u64>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut scale_div) =
            (None, None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad(&"must be a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    })
                }
                "--scale-div" => {
                    let d = value.parse::<u64>().map_err(|e| bad(&e))?;
                    if d == 0 {
                        return Err(bad(&"must be at least 1"));
                    }
                    scale_div = Some(d);
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale_div,
        })
    }

    fn to_argv(&self, workload: &str) -> Vec<String> {
        let mut argv = vec![
            "--workload".into(),
            workload.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
        ];
        if let Some(d) = self.scale_div {
            argv.extend(["--scale-div".into(), d.to_string()]);
        }
        argv
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = workload::find(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let host = Host::detect_and_pin();
    // Opened before the first rank thread or rayon worker starts, so that
    // every one of them is counted.
    let counter = match InstructionCounter::open() {
        Ok(counter) => counter,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match bench(w, &args, &host, &counter) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in a fresh process of its own so that its
/// peak memory is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe).args(args.to_argv(w.name)).status();
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("perfbench: workload {} failed: {status:?}", w.name);
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `f` and returns the process CPU seconds it took.
fn cpu_timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = process_cpu_s();
    let r = f();
    (process_cpu_s() - t, r)
}

/// Host clocks of one `MndMstRunner::run`; the last two sum every thread of
/// the process (rank threads, rayon workers).
#[derive(Clone, Copy, Debug)]
struct RunTimes {
    wall_s: f64,
    /// CPU seconds, the clock of `setup_s`.
    cpu_s: f64,
    /// User-space instructions retired.
    instructions: u64,
}

/// Everything the determinism guard compares between runs of one graph:
/// the simulated makespan and every count the run reports.
#[derive(Debug, PartialEq)]
struct Signature {
    sim_s_bits: u64,
    comm_s_bits: u64,
    bytes_per_rank: Vec<u64>,
    messages_per_rank: Vec<u64>,
    levels: usize,
    exchange_rounds: usize,
}

impl Signature {
    fn of(report: &MndMstReport) -> Signature {
        Signature {
            sim_s_bits: report.total_time.to_bits(),
            comm_s_bits: report.comm_time.to_bits(),
            bytes_per_rank: report.rank_stats.iter().map(|s| s.bytes_sent).collect(),
            messages_per_rank: report.rank_stats.iter().map(|s| s.messages_sent).collect(),
            levels: report.levels,
            exchange_rounds: report.exchange_rounds,
        }
    }
}

/// Failure accounting: every run is checked against the oracle and against
/// the first correct run's signature; failures are printed and counted,
/// and never stop the remaining runs.
struct Ledger<'a> {
    oracle: &'a MsfResult,
    counter: &'a InstructionCounter,
    attempted: u64,
    failed: u64,
    /// The first correct run's report, the reference of the guard.
    reference: Option<MndMstReport>,
}

impl<'a> Ledger<'a> {
    fn new(oracle: &'a MsfResult, counter: &'a InstructionCounter) -> Self {
        Ledger {
            oracle,
            counter,
            attempted: 0,
            failed: 0,
            reference: None,
        }
    }

    /// Makes one run through `call`, its wall timed from `start`, and
    /// returns its host clocks and, if it passed every check, its report.
    /// An error only if the instruction counter cannot be read.
    fn run(
        &mut self,
        label: &str,
        start: Instant,
        call: impl FnOnce() -> MndMstReport,
    ) -> Result<(RunTimes, Option<MndMstReport>), String> {
        let instructions_start = self.counter.read()?;
        let cpu_start = process_cpu_s();
        let outcome = catch_unwind(AssertUnwindSafe(call));
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu_start;
        let instructions = self.counter.read()? - instructions_start;
        let times = RunTimes {
            wall_s,
            cpu_s,
            instructions,
        };
        self.attempted += 1;
        let n = self.attempted;
        let verdict = match outcome {
            Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
            Ok(report) => self.check(report),
        };
        match verdict {
            Ok(report) => {
                println!(
                    "run {n} ({label}): wall {wall_s:.4} s, cpu {cpu_s:.4} s, \
                     {instructions} instructions, sim {} s, forest ok",
                    report.total_time
                );
                Ok((times, Some(report)))
            }
            Err(why) => {
                self.failed += 1;
                println!("run {n} ({label}): FAILED after {wall_s:.4} s: {why}");
                Ok((times, None))
            }
        }
    }

    fn check(&mut self, report: MndMstReport) -> Result<MndMstReport, String> {
        if report.msf != *self.oracle {
            return Err(format!(
                "forest differs from the Kruskal oracle ({} vs {} edges, weight {} vs {})",
                report.msf.edges.len(),
                self.oracle.edges.len(),
                report.msf.weight,
                self.oracle.weight,
            ));
        }
        let sig = Signature::of(&report);
        match &self.reference {
            Some(r) if Signature::of(r) != sig => Err(format!(
                "determinism guard: {sig:?} differs from the first run's {:?}",
                Signature::of(r)
            )),
            Some(_) => Ok(report),
            None => {
                self.reference = Some(report.clone());
                Ok(report)
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Where the traced run's spans are written: under the build directory,
/// inside the checkout.
fn spans_path(w: &Workload, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(dir)
        .join("perfbench-spans")
        .join(format!("{}-seed{seed}.jsonl", w.name))
}

/// One invocation on one workload; returns the JSON result line.
fn bench(
    w: Workload,
    args: &Args,
    host: &Host,
    counter: &InstructionCounter,
) -> Result<String, String> {
    let div = args.scale_div.unwrap_or(w.scale_div);
    let seed = args.seed;
    println!(
        "perfbench: workload={} seed={seed} graph={} scale_div={div} sim_scale={div} ranks={RANKS} trace={}",
        w.name,
        w.preset.name(),
        u8::from(args.trace)
    );
    println!("why: {}", w.why);
    println!("host: {}", host.describe());

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let (s, el) = cpu_timed(|| w.preset.generate(div, seed));
    setup_s.push(s);
    let fingerprint = el.fingerprint();
    println!(
        "graph: fingerprint={fingerprint} vertices={} edges={}",
        el.num_vertices(),
        el.len()
    );
    let oracle = kruskal_msf(&el);
    let mut ledger = Ledger::new(&oracle, counter);

    // Untraced runs, closed loop, no observer attached.
    let runner = workload::runner(div, None);
    let (mut walls_s, mut cpus_s, mut instructions) = (Vec::new(), Vec::new(), Vec::new());
    let loop_start = Instant::now();
    while ledger.attempted == 0 || loop_start.elapsed().as_secs_f64() < args.seconds {
        let (times, report) = ledger.run("untraced", Instant::now(), || runner.run(&el))?;
        if report.is_some() {
            walls_s.push(times.wall_s);
            cpus_s.push(times.cpu_s);
            instructions.push(times.instructions as f64);
        }
    }
    let untraced_runs = ledger.attempted;
    // Read before the traced run and the layer calls touch memory.
    let peak_rss_mb = peak_rss_mb()?;

    let mut per_layer = Metrics::default();
    let layers_correct = if args.trace {
        let wall_s = median(&walls_s);
        per_layer.push_noted("host.wall_s", wall_s, "s", spread_note(&walls_s));
        per_layer.push_noted("host.cpu_s", median(&cpus_s), "s", spread_note(&cpus_s));
        traced(w, div, seed, &el, &mut ledger, wall_s, &mut per_layer)?
    } else {
        true
    };

    for _ in 1..SETUP_REPS {
        let (s, again) = cpu_timed(|| w.preset.generate(div, seed));
        setup_s.push(s);
        if again.fingerprint() != fingerprint {
            return Err(format!(
                "{} generated two different graphs for seed {seed}",
                w.name
            ));
        }
    }

    let mut end_to_end = Metrics::default();
    end_to_end.push_noted(
        "instructions",
        median(&instructions),
        "count",
        spread_note(&instructions),
    );
    let sim_s = ledger.reference.as_ref().map_or(f64::NAN, |r| r.total_time);
    end_to_end.push_noted(
        "sim_s",
        sim_s,
        "s",
        "simulated makespan, identical in every run".into(),
    );
    end_to_end.push_noted("setup_s", median(&setup_s), "s", spread_note(&setup_s));
    end_to_end.push_noted(
        "peak_rss_mb",
        peak_rss_mb,
        "MB",
        format!("VmHWM after {untraced_runs} untraced runs"),
    );
    println!("end-to-end:");
    end_to_end.print();
    // Not in the result's metrics (a healthy value is 0): the result line
    // carries it as `failed` and `attempted`.
    let mut failures = Metrics::default();
    failures.push_noted(
        "fail_rate",
        ledger.failed as f64 / ledger.attempted as f64,
        "ratio",
        format!("{} failed of {} attempted", ledger.failed, ledger.attempted),
    );
    failures.print();
    if args.trace {
        println!("per-layer:");
        per_layer.print();
    }

    let correct = ledger.failed == 0 && layers_correct;
    let reported = if args.trace { &per_layer } else { &end_to_end };
    Ok(json_line(
        correct,
        ledger.attempted,
        ledger.failed,
        reported,
    ))
}

/// The traced run and the standalone layer calls; fills `out` with every
/// per-layer metric. Returns whether the layer calls' own outputs were
/// correct.
fn traced(
    w: Workload,
    div: u64,
    seed: u64,
    el: &EdgeList,
    ledger: &mut Ledger<'_>,
    untraced_wall_s: f64,
    out: &mut Metrics,
) -> Result<bool, String> {
    let recorder = Arc::new(SpanRecorder::start());
    let runner = workload::runner(div, Some(recorder.clone()));
    let (times, report) = ledger.run("traced", recorder.origin(), || runner.run(el))?;
    let wall_s = times.wall_s;
    let spans = recorder.spans();
    let summary = spans::summarize(&spans, wall_s);

    let path = spans_path(&w, seed);
    let run_id = format!("{}/seed={seed}/traced", w.name);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, spans::to_jsonl(&run_id, &spans, wall_s))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "spans: {} phase spans of run {run_id} written to {}",
        spans.len(),
        path.display()
    );

    for (kind, t) in PhaseKind::ALL.iter().zip(&summary.phases) {
        let p = kind.name();
        out.push(format!("mst.{p}.wall_s"), t.wall_s, "s");
        out.push(format!("mst.{p}.sim_comp_s"), t.sim_comp_s, "s");
        out.push(format!("mst.{p}.sim_comm_s"), t.sim_comm_s, "s");
        out.push(format!("mst.{p}.bytes"), t.bytes as f64, "count");
        out.push(format!("mst.{p}.messages"), t.messages as f64, "count");
        out.push(format!("mst.{p}.samples"), t.samples as f64, "count");
    }
    out.push("mst.unattributed_wall_s", summary.unattributed_s, "s");
    // Counts are equal in every correct run (the guard checks it), so the
    // traced report stands for all of them.
    let counts = report.as_ref().or(ledger.reference.as_ref());
    let count = |f: fn(&MndMstReport) -> f64| counts.map_or(f64::NAN, f);
    out.push("mst.levels", count(|r| r.levels as f64), "count");
    out.push(
        "mst.exchange_rounds",
        count(|r| r.exchange_rounds as f64),
        "count",
    );
    out.push("net.sim_comm_s", count(|r| r.comm_time), "s");
    out.push("net.bytes_sent", count(|r| r.total_bytes() as f64), "count");
    out.push(
        "net.messages_sent",
        count(|r| r.rank_stats.iter().map(|s| s.messages_sent).sum::<u64>() as f64),
        "count",
    );
    drop(report);

    let layers = layers::measure(el, ledger.oracle, &runner.config, LAYER_REPS);
    out.push("kernels.local_boruvka_s", layers.local_boruvka_s, "s");
    out.push(
        "kernels.apply_ghost_parents_s",
        layers.apply_ghost_parents_s,
        "s",
    );
    out.push("kernels.reduce_holding_s", layers.reduce_holding_s, "s");
    out.push(
        "kernels.reduce.removed_ratio",
        layers.reduce_removed_ratio,
        "ratio",
    );
    out.push(
        "kernels.local_boruvka.edges_in",
        layers.local_boruvka_edges_in as f64,
        "count",
    );
    out.push(
        "kernels.local_boruvka.msf_edges",
        layers.local_boruvka_msf_edges as f64,
        "count",
    );
    out.push(
        "wire.packed_pairs_encode_s",
        layers.packed_pairs_encode_s,
        "s",
    );
    out.push(
        "wire.packed_pairs_ratio",
        layers.packed_pairs_ratio,
        "ratio",
    );
    out.push("graph.csr_build_s", layers.csr_build_s, "s");
    out.push("graph.vertices", layers.vertices as f64, "count");
    out.push("graph.edges", layers.edges as f64, "count");
    out.push("graph.cut_fraction", layers.cut_fraction, "ratio");
    out.push("baseline.filter_kruskal_s", layers.filter_kruskal_s, "s");
    out.push(
        "baseline.wall_ratio",
        untraced_wall_s / layers.filter_kruskal_s,
        "ratio",
    );
    out.push("trace.overhead_s", wall_s - untraced_wall_s, "s");
    out.push("trace.coverage", summary.coverage, "ratio");
    if !layers.filter_kruskal_correct {
        println!("baseline: filter-Kruskal forest differs from the Kruskal oracle");
    }
    Ok(layers.filter_kruskal_correct)
}
