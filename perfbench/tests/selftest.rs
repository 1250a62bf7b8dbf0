//! Self-test of the benchmark at a tiny scale divisor: on every workload
//! it prints every named metric with its unit, no run fails, and the
//! traced run's phase spans cover at least 90% of its wall.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::process::{Command, Output};

const TINY_SCALE_DIV: &str = "65536";
const WORKLOADS: [&str; 3] = ["uk-crawl", "gsh-scatter", "road-sparse"];
const PHASES: [&str; 5] = [
    "partition",
    "ind_comp",
    "merge_parts",
    "hier_merge",
    "post_process",
];

/// The end-to-end metrics of the result line, with units.
const END_TO_END: [(&str, &str); 4] = [
    ("instructions", "count"),
    ("sim_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the result line, with units.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m = vec![
        ("host.wall_s".to_string(), "s"),
        ("host.cpu_s".to_string(), "s"),
    ];
    for p in PHASES {
        for (field, unit) in [
            ("wall_s", "s"),
            ("sim_comp_s", "s"),
            ("sim_comm_s", "s"),
            ("bytes", "count"),
            ("messages", "count"),
            ("samples", "count"),
        ] {
            m.push((format!("mst.{p}.{field}"), unit));
        }
    }
    for (name, unit) in [
        ("mst.unattributed_wall_s", "s"),
        ("mst.levels", "count"),
        ("mst.exchange_rounds", "count"),
        ("net.sim_comm_s", "s"),
        ("net.bytes_sent", "count"),
        ("net.messages_sent", "count"),
        ("kernels.local_boruvka_s", "s"),
        ("kernels.apply_ghost_parents_s", "s"),
        ("kernels.reduce_holding_s", "s"),
        ("kernels.reduce.removed_ratio", "ratio"),
        ("kernels.local_boruvka.edges_in", "count"),
        ("kernels.local_boruvka.msf_edges", "count"),
        ("wire.packed_pairs_encode_s", "s"),
        ("wire.packed_pairs_ratio", "ratio"),
        ("graph.csr_build_s", "s"),
        ("graph.vertices", "count"),
        ("graph.edges", "count"),
        ("graph.cut_fraction", "ratio"),
        ("baseline.filter_kruskal_s", "s"),
        ("baseline.wall_ratio", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.coverage", "ratio"),
    ] {
        m.push((name.to_string(), unit));
    }
    m
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs")
}

struct Printed {
    /// `(name, value, unit)` of every `metric` line.
    metrics: Vec<(String, f64, String)>,
    /// The JSON result line.
    result: String,
}

impl Printed {
    fn get(&self, name: &str) -> Option<(f64, &str)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, u)| (*v, u.as_str()))
    }
}

fn run_tiny(workload: &str, trace: &str) -> Printed {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.3",
        "--trace",
        trace,
        "--scale-div",
        TINY_SCALE_DIV,
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let value = f[1].parse::<f64>().unwrap_or(f64::NAN);
            (f[0].to_string(), value, f[2].to_string())
        })
        .collect();
    let result = stdout.lines().last().expect("a result line").to_string();
    Printed { metrics, result }
}

fn assert_in_result(p: &Printed, name: &str, unit: &str) {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = p
        .result
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {}", p.result));
    let tail = &p.result[at + key.len()..];
    assert!(!tail.starts_with("null"), "{name} is not a number");
    assert!(
        tail.contains(&format!("\"unit\": \"{unit}\"")),
        "{name} lacks unit {unit}"
    );
}

#[test]
fn traced_runs_print_every_metric_with_its_unit() {
    for w in WORKLOADS {
        let p = run_tiny(w, "1");
        let mut expected: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        expected.push(("fail_rate".to_string(), "ratio"));
        expected.extend(per_layer());
        for (name, unit) in &expected {
            let (value, printed_unit) = p
                .get(name)
                .unwrap_or_else(|| panic!("{w}: {name} not printed"));
            assert_eq!(printed_unit, *unit, "{w}: unit of {name}");
            assert!(value.is_finite(), "{w}: {name} = {value}");
        }
        assert_eq!(p.get("fail_rate").map(|m| m.0), Some(0.0), "{w}: fail_rate");
        let coverage = p.get("trace.coverage").expect("coverage printed").0;
        assert!(coverage >= 0.9, "{w}: trace.coverage {coverage}");
        assert!(
            p.result.starts_with("{\"correct\": true, \"attempted\": "),
            "{}",
            p.result
        );
        assert!(
            p.result.contains("\"failed\": 0, \"metrics\": {"),
            "{}",
            p.result
        );
        for (name, unit) in per_layer() {
            assert_in_result(&p, &name, unit);
        }
        assert!(
            !p.result.contains("\"instructions\""),
            "per-layer result carries only per-layer metrics"
        );
    }
}

#[test]
fn untraced_result_carries_the_end_to_end_metrics() {
    let p = run_tiny("road-sparse", "0");
    assert!(
        p.result.starts_with("{\"correct\": true, \"attempted\": "),
        "{}",
        p.result
    );
    for (name, unit) in END_TO_END {
        assert_in_result(&p, name, unit);
        assert!(p.get(name).expect("printed").0 > 0.0, "{name} is never 0");
    }
    assert!(!p.result.contains("mst."), "{}", p.result);
}

#[test]
fn benchmark_json_lists_known_workloads_and_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let listed: BTreeSet<String> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect();
    let (workloads, metrics): (BTreeSet<String>, BTreeSet<String>) = listed
        .into_iter()
        .partition(|n| WORKLOADS.contains(&n.as_str()));
    assert!(workloads.len() >= 2, "{workloads:?}");
    let mut expected: BTreeSet<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    expected.extend(per_layer().into_iter().map(|(n, _)| n));
    assert_eq!(metrics, expected);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "uk-crawl",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "uk-crawl", "--seed", "1"][..],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
