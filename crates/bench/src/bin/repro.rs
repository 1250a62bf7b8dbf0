//! `repro` — regenerates every table and figure of the MND-MST paper.
//!
//! ```text
//! repro [--scale N] [--seed S] [--no-verify] [--nodes N] [--trace PATH] <experiment>...
//! repro all            # everything (slow)
//! repro table3 fig8    # selected experiments
//! repro --trace - chaos   # chaos sweep, JSONL events to stdout
//! repro chaos --seed-grid 7,11   # chaos sweep repeated per seed
//! ```
//!
//! Experiments: table2 table3 table4 fig4 fig5 fig6 fig7 fig8
//! ablation-group ablation-excp ablation-thresh calibration chaos
//! resilience checkpoint-sweep traffic engines serve-sweep comm-sweep
//! emst-sweep
//!
//! `--trace PATH` streams every phase sample and chaos event as JSON
//! lines to PATH (`-` = stdout) while the experiments run.

use mnd_bench::fmt::{pct, print_table, secs, write_csv};
use mnd_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = ExpContext::default();
    let mut nranks = 16usize;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut seed_grid: Vec<u64> = Vec::new();
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => {
                csv_dir = Some(it.next().expect("--csv DIR").into());
            }
            "--scale" => {
                ctx.scale = it
                    .next()
                    .expect("--scale N")
                    .parse()
                    .expect("numeric scale");
            }
            "--seed" => {
                ctx.seed = it.next().expect("--seed S").parse().expect("numeric seed");
            }
            "--seed-grid" => {
                seed_grid = it
                    .next()
                    .expect("--seed-grid S1,S2,...")
                    .split(',')
                    .map(|s| s.trim().parse().expect("numeric seed in --seed-grid"))
                    .collect();
            }
            "--nodes" => {
                nranks = it
                    .next()
                    .expect("--nodes N")
                    .parse()
                    .expect("numeric nodes");
            }
            "--no-verify" => ctx.verify = false,
            "--trace" => {
                let path = it.next().expect("--trace PATH");
                let trace = if path == "-" {
                    mnd_bench::trace::JsonlTrace::stdout()
                } else {
                    mnd_bench::trace::JsonlTrace::create(std::path::Path::new(&path))
                        .unwrap_or_else(|e| panic!("--trace {path}: {e}"))
                };
                ctx.observer = mnd_hypar::observe::ObserverHook::new(std::sync::Arc::new(trace));
            }
            "--help" | "-h" => {
                println!("usage: repro [--scale N] [--seed S] [--seed-grid S1,S2,...] [--nodes N] [--no-verify] [--csv DIR] [--trace PATH] <exp>...");
                println!("experiments: all table2 table3 table4 fig4 fig5 fig6 fig7 fig8");
                println!(
                    "             ablation-group ablation-excp ablation-thresh ablation-locality"
                );
                println!("             ablation-weights ablation-network calibration");
                println!("             chaos resilience checkpoint-sweep traffic");
                println!("             engines serve-sweep comm-sweep emst-sweep");
                println!(
                    "--trace PATH streams phase samples + chaos events as JSON lines (- = stdout)"
                );
                println!("--seed-grid S1,S2,... repeats the chaos/resilience sweeps once per seed");
                return;
            }
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".into());
    }
    let all = experiments.iter().any(|e| e == "all");
    let want = |name: &str| all || experiments.iter().any(|e| e == name);
    let emit = |csv_name: &str, title: &str, header: &[&str], rows: &[Vec<String>]| {
        print_table(title, header, rows);
        if let Some(dir) = &csv_dir {
            match write_csv(dir, csv_name, header, rows) {
                Ok(p) => println!("(csv: {})", p.display()),
                Err(e) => eprintln!("csv write failed: {e}"),
            }
        }
    };

    println!(
        "# MND-MST reproduction — scale 1/{}, seed {}, verify {}",
        ctx.scale, ctx.seed, ctx.verify
    );
    println!("(times are simulated seconds at paper scale; see DESIGN.md)");

    if want("table2") {
        let rows = table2(&ctx);
        emit(
            "table2",
            "Table 2: graph stand-ins (scaled 1/N of the paper's graphs)",
            &[
                "graph",
                "|V|",
                "|E|",
                "avg deg",
                "max deg",
                "diam",
                "paper avg deg",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.graph.into(),
                        r.vertices.to_string(),
                        r.edges.to_string(),
                        format!("{:.2}", r.avg_degree),
                        r.max_degree.to_string(),
                        r.diameter.to_string(),
                        format!("{:.2}", r.paper_avg_degree),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    if want("table3") {
        let rows = table3(&ctx, nranks);
        emit(
            "table3",
            &format!("Table 3: Pregel+ vs MND-MST ({nranks} nodes, CPU only)"),
            &[
                "graph",
                "Pregel+ exe",
                "Pregel+ comm",
                "MND exe",
                "MND comm",
                "improv",
                "comm red",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.graph.into(),
                        secs(r.pregel_exe),
                        secs(r.pregel_comm),
                        secs(r.mnd_exe),
                        secs(r.mnd_comm),
                        pct(r.improvement()),
                        pct(r.comm_reduction()),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    if want("table4") {
        let rows = table4(&ctx);
        emit(
            "table4",
            "Table 4: MND-MST with increasing node counts (AMD cluster)",
            &["graph", "nodes", "exe time"],
            &rows
                .iter()
                .map(|r| vec![r.graph.into(), r.nodes.to_string(), secs(r.mnd_exe)])
                .collect::<Vec<_>>(),
        );
    }

    if want("fig4") {
        let rows = fig4(&ctx);
        emit(
            "fig4",
            "Figure 4: inter-node scalability, Pregel+ vs MND-MST",
            &["graph", "nodes", "Pregel+ exe", "MND exe"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.graph.into(),
                        r.nodes.to_string(),
                        r.pregel_exe.map(secs).unwrap_or_else(|| "-".into()),
                        secs(r.mnd_exe),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    if want("fig5") {
        let rows = fig5(&ctx);
        emit(
            "fig5",
            "Figure 5: computation vs communication",
            &["graph", "nodes", "system", "comp", "comm", "comm frac"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.graph.into(),
                        r.nodes.to_string(),
                        r.system.into(),
                        secs(r.comp),
                        secs(r.comm),
                        pct(r.comm_fraction()),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    if want("fig6") {
        let rows = fig6(&ctx);
        emit(
            "fig6",
            "Figure 6: CPU-only MND-MST scalability (Cray)",
            &["graph", "nodes", "exe time"],
            &rows
                .iter()
                .map(|r| vec![r.graph.into(), r.nodes.to_string(), secs(r.mnd_exe)])
                .collect::<Vec<_>>(),
        );
    }

    if want("fig7") {
        let rows = fig7(&ctx);
        emit(
            "fig7",
            "Figure 7: execution time per phase (Cray, CPU only)",
            &["graph", "nodes", "indComp", "merge", "postProcess", "comm"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.graph.into(),
                        r.nodes.to_string(),
                        secs(r.ind_comp),
                        secs(r.merge),
                        secs(r.post_process),
                        secs(r.comm),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    if want("fig8") {
        let rows = fig8(&ctx);
        emit(
            "fig8",
            "Figure 8: MND-MST CPU-only vs CPU-GPU (Cray)",
            &["graph", "nodes", "CPU-only", "CPU+GPU", "GPU benefit"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.graph.into(),
                        r.nodes.to_string(),
                        secs(r.cpu_only),
                        secs(r.cpu_gpu),
                        pct(r.improvement()),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    for (name, rows) in [
        (
            "ablation-group",
            want("ablation-group").then(|| ablation_group(&ctx, nranks)),
        ),
        (
            "ablation-excp",
            want("ablation-excp").then(|| ablation_excp(&ctx, nranks)),
        ),
        (
            "ablation-thresh",
            want("ablation-thresh").then(|| ablation_thresh(&ctx, nranks)),
        ),
        (
            "ablation-locality",
            want("ablation-locality").then(|| ablation_locality(&ctx, nranks)),
        ),
        (
            "ablation-weights",
            want("ablation-weights").then(|| ablation_weights(&ctx, nranks)),
        ),
        (
            "ablation-network",
            want("ablation-network").then(|| ablation_network(&ctx, nranks)),
        ),
    ] {
        if let Some(rows) = rows {
            emit(
                name,
                &format!("Ablation: {name}"),
                &["variant", "exe", "comm", "rounds"],
                &rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.variant.clone(),
                            secs(r.exe),
                            secs(r.comm),
                            r.rounds.to_string(),
                        ]
                    })
                    .collect::<Vec<_>>(),
            );
        }
    }

    if want("chaos") {
        // One sweep per grid seed (default: just the context seed) — the
        // recovery columns must stay nonzero across seeds, not at one
        // lucky crash schedule.
        let seeds = if seed_grid.is_empty() {
            vec![ctx.seed]
        } else {
            seed_grid.clone()
        };
        let mut flat: Vec<Vec<String>> = Vec::new();
        for &seed in &seeds {
            let sctx = ExpContext {
                seed,
                ..ctx.clone()
            };
            for r in chaos(&sctx, nranks) {
                flat.push(vec![
                    seed.to_string(),
                    r.plan.clone(),
                    secs(r.exe),
                    pct(r.overhead),
                    r.retries.to_string(),
                    r.redeliveries.to_string(),
                    r.restores.to_string(),
                    secs(r.stall),
                    secs(r.replayed_compute),
                    r.replayed_in_bytes.to_string(),
                ]);
            }
        }
        emit(
            "chaos",
            &format!("Chaos: fault-plane overhead sweep ({nranks} nodes, oracle-verified)"),
            &[
                "seed",
                "fault plan",
                "exe",
                "overhead",
                "retries",
                "redeliveries",
                "restores",
                "stall",
                "replayed comp",
                "replayed bytes",
            ],
            &flat,
        );
    }

    if want("resilience") {
        // Both engines under the same fault schedule, one sweep per grid
        // seed — the BSP runs are oracle-verified and every faulted run's
        // logical traffic is asserted equal to its fault-free baseline.
        let seeds = if seed_grid.is_empty() {
            vec![ctx.seed]
        } else {
            seed_grid.clone()
        };
        let mut flat: Vec<Vec<String>> = Vec::new();
        for &seed in &seeds {
            let sctx = ExpContext {
                seed,
                ..ctx.clone()
            };
            for r in resilience(&sctx, nranks) {
                flat.push(vec![
                    seed.to_string(),
                    r.engine.to_string(),
                    r.plan.clone(),
                    secs(r.exe),
                    secs(r.recovery),
                    pct(r.overhead),
                    r.restores.to_string(),
                    secs(r.stall),
                    secs(r.replayed_compute),
                    r.replayed_in_bytes.to_string(),
                    r.reexec.to_string(),
                ]);
            }
        }
        emit(
            "resilience",
            &format!("Resilience: every registered engine under the same fault plans ({nranks} nodes, oracle-verified)"),
            &[
                "seed",
                "engine",
                "fault plan",
                "exe",
                "recovery",
                "overhead",
                "restores",
                "stall",
                "replayed comp",
                "replayed bytes",
                "reexec",
            ],
            &flat,
        );
    }

    if want("checkpoint-sweep") {
        let rows = checkpoint_sweep(&ctx, nranks);
        let flat: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.engine.to_string(),
                    r.interval.to_string(),
                    secs(r.clean_exe),
                    r.writes.to_string(),
                    r.ckpt_bytes.to_string(),
                    secs(r.crash_exe),
                    secs(r.recovery),
                    r.restores.to_string(),
                    r.reexec.to_string(),
                    secs(r.replayed_compute),
                ]
            })
            .collect();
        emit(
            "checkpoint_sweep",
            &format!(
                "Checkpoint sweep: overhead vs recovery cost per cadence ({nranks} nodes, oracle-verified; spmsf-full = delta encoding off)"
            ),
            &[
                "engine",
                "interval",
                "clean exe",
                "writes",
                "ckpt bytes",
                "crash exe",
                "recovery",
                "restores",
                "reexec",
                "replayed comp",
            ],
            &flat,
        );
    }

    if want("engines") {
        let rows = engine_list(&ctx, nranks);
        emit(
            "engines",
            "Registered engines (mnd::engines::registry)",
            &["engine", "description"],
            &rows
                .iter()
                .map(|r| vec![r.name.into(), r.description.into()])
                .collect::<Vec<_>>(),
        );
    }

    if want("serve-sweep") {
        let sweep = serve_sweep(&ctx, nranks);
        emit(
            "serve_tenants",
            &format!(
                "Serve sweep: per-tenant latency/throughput ({nranks} ranks, mixed MST/CC/BFS/update workload, oracle-verified)"
            ),
            &[
                "plane", "tenant", "weight", "jobs", "done", "rej", "hits", "p50", "p95", "p99",
                "jobs/s",
            ],
            &sweep
                .tenants
                .iter()
                .map(|t| {
                    vec![
                        t.plane.clone(),
                        t.tenant.clone(),
                        format!("{:.0}", t.weight),
                        t.submitted.to_string(),
                        t.completed.to_string(),
                        t.rejected.to_string(),
                        t.cache_hits.to_string(),
                        secs(t.p50),
                        secs(t.p95),
                        secs(t.p99),
                        format!("{:.4}", t.throughput),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        emit(
            "serve_planes",
            "Serve sweep: cache + update-path summary per plane",
            &[
                "plane",
                "done",
                "rej",
                "hits",
                "miss",
                "saved",
                "update exec",
                "makespan",
                "util",
            ],
            &sweep
                .planes
                .iter()
                .map(|p| {
                    vec![
                        p.plane.clone(),
                        p.completed.to_string(),
                        p.rejected.to_string(),
                        p.cache_hits.to_string(),
                        p.cache_misses.to_string(),
                        secs(p.saved),
                        secs(p.update_exec),
                        secs(p.makespan),
                        format!("{:.1}%", p.utilisation * 100.0),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    if want("traffic") {
        let rows = traffic(&ctx, nranks);
        emit(
            "traffic",
            &format!("Per-tag traffic ({nranks} nodes, 2% drop + 2% duplicates)"),
            &["tag", "bytes sent", "messages", "retries", "redeliveries"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.tag.clone(),
                        r.bytes_sent.to_string(),
                        r.messages.to_string(),
                        r.retries.to_string(),
                        r.redeliveries.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    if want("calibration") {
        let rows = calibration(&ctx);
        emit(
            "calibration",
            "Calibration (§4.3.1): CPU/GPU split per graph",
            &["graph", "gpu speedup", "cpu fraction", "memory limited"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.graph.into(),
                        format!("{:.2}x", r.gpu_speedup),
                        format!("{:.2}", r.cpu_fraction),
                        r.memory_limited.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    if want("emst-sweep") {
        let sweep = emst_sweep(&ctx, nranks);
        if ctx.verify {
            println!(
                "(EMST oracle: brute-force EMST on {} points per preset matched the k-NN MST \
                 and every engine; max inclusion threshold k* = {})",
                sweep.oracle_points, sweep.oracle_kstar
            );
        }
        emit(
            "emst_sweep",
            &format!(
                "EMST sweep: every engine over the geometric presets ({nranks} nodes, oracle-verified)"
            ),
            &[
                "preset", "engine", "|V|", "|E|", "avg deg", "max deg", "k", "exe", "comm",
            ],
            &sweep
                .rows
                .iter()
                .map(|r| {
                    vec![
                        r.preset.into(),
                        r.engine.into(),
                        r.vertices.to_string(),
                        r.edges.to_string(),
                        format!("{:.2}", r.avg_degree),
                        r.max_degree.to_string(),
                        r.k.to_string(),
                        secs(r.exe),
                        secs(r.comm),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        emit(
            "emst_devices",
            "EMST device calibration: occupancy/split/recursion on bounded-degree inputs vs crawls",
            &[
                "graph",
                "skew",
                "occ binned",
                "occ unbinned",
                "gpu speedup",
                "cpu frac",
                "paper |E|",
                "rec. thresh",
                "recurses",
            ],
            &sweep
                .devices
                .iter()
                .map(|d| {
                    vec![
                        d.graph.clone(),
                        format!("{:.3}", d.skew),
                        format!("{:.3}", d.occ_binned),
                        format!("{:.3}", d.occ_unbinned),
                        format!("{:.2}x", d.gpu_speedup),
                        format!("{:.2}", d.cpu_fraction),
                        d.paper_edges.to_string(),
                        d.recursion_threshold.to_string(),
                        d.recurses.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let serve = emst_serve_session(&ctx, nranks);
        emit(
            "emst_serve",
            "EMST serve session: point insertions through the incremental plane (oracle-verified)",
            &[
                "preset",
                "points",
                "batches",
                "inserts",
                "forest edges",
                "update exec",
            ],
            &[vec![
                serve.preset.into(),
                serve.points.to_string(),
                serve.batches.to_string(),
                serve.inserts.to_string(),
                serve.forest_edges.to_string(),
                secs(serve.update_exec),
            ]],
        );
    }

    if want("comm-sweep") {
        let rows = comm_sweep(&ctx, nranks);
        emit(
            "comm_sweep",
            &format!(
                "Comm sweep: dense vs sparse exchange, compression, filter-Boruvka ({nranks} nodes, oracle-verified)"
            ),
            &[
                "preset",
                "variant",
                "messages",
                "wire MB",
                "alltoall msgs",
                "header msgs",
                "exe",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.preset.into(),
                        r.variant.clone(),
                        r.messages.to_string(),
                        format!("{:.3}", r.wire_mb),
                        r.payload_msgs.to_string(),
                        r.header_msgs.to_string(),
                        secs(r.exe),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let cal = comm_calibration(&ctx);
        emit(
            "comm_calibration",
            "Comm calibration: assumed vs measured per-round exchange messages",
            &[
                "nodes",
                "rounds",
                "assumed msgs",
                "measured msgs",
                "assumed thresh",
                "measured thresh",
            ],
            &cal.iter()
                .map(|r| {
                    vec![
                        r.nranks.to_string(),
                        r.exchange_rounds.to_string(),
                        format!("{:.1}", r.assumed_msgs),
                        format!("{:.1}", r.measured_msgs),
                        r.assumed_threshold.to_string(),
                        r.measured_threshold.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }
}
