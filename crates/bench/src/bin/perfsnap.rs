//! `perfsnap` — writes a machine-readable perf snapshot of the build.
//!
//! ```text
//! perfsnap [PATH]    # default BENCH_9.json
//! ```
//!
//! The snapshot records (a) wall-clock plus simulated times for verified
//! end-to-end runs —
//! the D&C driver at two node counts, every registered engine
//! (`mnd::engines`) at 4 nodes, the serving plane's per-tenant p95
//! latencies under the mixed serve-sweep workload (`serve:<tenant>`
//! keys, simulated only: they carry no `wall_ms`), and every engine
//! over the geometric presets (`emst:<preset>:<engine>` keys, the
//! bounded-degree regime) — and
//! (b) the comm-sweep traffic table (dense vs sparse exchange,
//! compression, filter-Boruvka), so the bench trajectory across PRs
//! lives in versioned JSON, not just in criterion's target directory.
//! JSON is assembled by hand: every value is a number or a fixed
//! identifier, no escaping needed.

use std::fmt::Write as _;
use std::time::Instant;

use mnd_bench::{comm_sweep, emst_sweep, engines_for, run_mnd, serve_sweep, ExpContext};
use mnd_device::NodePlatform;
use mnd_graph::presets::Preset;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_9.json".into());
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // End-to-end: verified runs at the default scale divisor.
    let ctx = ExpContext::default();
    let el = ctx.graph(Preset::Arabic2005);
    let mut e2e = Vec::new();
    for nodes in [4usize, 16] {
        let t = Instant::now();
        let r = run_mnd(&ctx, &el, nodes, NodePlatform::amd_cluster(), ctx.hypar());
        e2e.push((
            "arabic-2005".to_string(),
            nodes,
            Some(t.elapsed().as_millis() as u64),
            r.total_time,
        ));
    }
    // One row per registered engine (graph key carries the engine name so
    // bench_check's (graph, nodes) join stays unique): gates sim-time
    // neutrality of the shared recovery fabric across all three engines.
    for engine in engines_for(&ctx, 4) {
        let t = Instant::now();
        let r = engine.run(&el);
        e2e.push((
            format!("arabic-2005:{}", engine.name()),
            4,
            Some(t.elapsed().as_millis() as u64),
            r.total_time,
        ));
    }
    // Serving plane: per-tenant p95 latencies from the serve sweep's
    // default-engine incremental plane (`serve:<tenant>` keys) — the
    // simulated p95 is deterministic, so bench_check gates the cache +
    // incremental-MSF serving path like any engine row. The tenants share
    // one mixed stream, so no host wall-clock belongs to a single tenant:
    // these rows carry no `wall_ms`.
    let serve = serve_sweep(&ctx, 4);
    for row in serve
        .tenants
        .iter()
        .filter(|r| r.plane == "mnd-mst/incremental")
    {
        e2e.push((format!("serve:{}", row.tenant), 4, None, row.p95));
    }
    // Geometric regime: every engine over every geo preset
    // (`emst:<preset>:<engine>` keys). The sweep brute-force-verifies
    // the small-n EMST oracle and cross-checks all engines before any
    // row lands, so gated sim times are times of *correct* runs here
    // too. Wall-clock is each engine run's own.
    let emst = emst_sweep(&ctx, 4);
    for row in &emst.rows {
        e2e.push((
            format!("emst:{}:{}", row.preset, row.engine),
            4,
            Some(row.wall_ms),
            row.exe,
        ));
    }

    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"pr\": 10,");
    let _ = writeln!(j, "  \"host_threads\": {host_threads},");
    j.push_str("  \"end_to_end\": [\n");
    for (i, (graph, nodes, wall_ms, sim_s)) in e2e.iter().enumerate() {
        let wall = wall_ms.map_or(String::new(), |ms| format!(" \"wall_ms\": {ms},"));
        let _ = write!(
            j,
            "    {{\"graph\": \"{graph}\", \"nodes\": {nodes},{wall} \"sim_time_s\": {sim_s:.3}}}"
        );
        j.push_str(if i + 1 < e2e.len() { ",\n" } else { "\n" });
    }
    // Comm sweep (DESIGN.md §8): every row is oracle-verified, so the gate
    // in bench_check.sh can hold sparse message counts at <= dense without
    // re-running the experiment.
    let comm = comm_sweep(&ctx, 8);
    j.push_str("  ],\n  \"comm_sweep\": [\n");
    for (i, r) in comm.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"preset\": \"{}\", \"variant\": \"{}\", \"messages\": {}, \"wire_mb\": {:.4}, \"payload_msgs\": {}, \"header_msgs\": {}, \"sim_time_s\": {:.3}}}",
            r.preset, r.variant, r.messages, r.wire_mb, r.payload_msgs, r.header_msgs, r.exe
        );
        j.push_str(if i + 1 < comm.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ]\n}\n");

    std::fs::write(&path, &j).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("perf snapshot written to {path}");
}
