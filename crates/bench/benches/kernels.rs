//! Criterion microbenchmarks of the single-device kernels.
//!
//! These measure the *real* wall-clock performance of our implementation
//! (the paper-shape reproduction lives in the `repro` binary, which uses
//! the simulated cost model — see DESIGN.md). Groups are named after the
//! paper sections they correspond to.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mnd_graph::presets::Preset;
use mnd_graph::{gen, CsrGraph};
use mnd_kernels::boruvka::boruvka_msf;
use mnd_kernels::cgraph::CGraph;
use mnd_kernels::oracle::kruskal_msf;
use mnd_kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};
use mnd_kernels::{local_boruvka, DisjointSets};

/// MST algorithms head to head on an arabic-2005 stand-in (§3.2/§3.5
/// kernels).
fn bench_mst_kernels(c: &mut Criterion) {
    let el = Preset::Arabic2005.generate(16384, 42);
    let edges = el.len() as u64;
    let mut g = c.benchmark_group("mst_kernels");
    g.throughput(Throughput::Elements(edges));
    g.sample_size(20);
    g.bench_function("kruskal", |b| b.iter(|| kruskal_msf(&el)));
    g.bench_function("filter_kruskal", |b| {
        b.iter(|| mnd_kernels::filter_kruskal_msf(&el))
    });
    g.bench_function("boruvka", |b| b.iter(|| boruvka_msf(&el)));
    g.finish();
}

/// The partition kernel with exception conditions (§3.2): how much work
/// the border-edge vs border-vertex rules leave on the table.
fn bench_exception_conditions(c: &mut Criterion) {
    let el = Preset::It2004.generate(32768, 7);
    let g = CsrGraph::from_edge_list(&el);
    let range = mnd_graph::partition::partition_1d(&g, 4, 0.0)[1];
    let mut grp = c.benchmark_group("ind_comp_exception");
    grp.sample_size(20);
    for (name, excp) in [
        ("border_edge", ExcpCond::BorderEdge),
        ("border_vertex", ExcpCond::BorderVertex),
    ] {
        grp.bench_with_input(BenchmarkId::from_parameter(name), &excp, |b, &excp| {
            b.iter_batched(
                || CGraph::from_partition(&g, range),
                |mut cg| local_boruvka(&mut cg, excp, FreezePolicy::Sticky, StopPolicy::Exhaustive),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    grp.finish();
}

/// mergeParts reductions (§3.3): self-edge + multi-edge removal sweeps.
fn bench_reductions(c: &mut Criterion) {
    let el = Preset::Gsh2015Tpd.generate(32768, 9);
    let g = CsrGraph::from_edge_list(&el);
    let range = mnd_graph::partition::partition_1d(&g, 4, 0.0)[0];
    // Pre-contract so reductions have self/multi edges to chew on.
    let contracted = {
        let mut cg = CGraph::from_partition(&g, range);
        local_boruvka(
            &mut cg,
            ExcpCond::BorderEdge,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        cg
    };
    let mut grp = c.benchmark_group("merge_reductions");
    grp.sample_size(30);
    grp.bench_function("self_plus_multi_edge_removal", |b| {
        b.iter_batched(
            || contracted.clone(),
            |mut cg| mnd_kernels::reduce::reduce_holding(&mut cg),
            criterion::BatchSize::LargeInput,
        )
    });
    grp.finish();
}

/// The holding plane's per-row sweeps across holding sizes up to a
/// million-plus edges: incident counts and the self/multi-edge reduce.
fn bench_holding_plane(c: &mut Criterion) {
    for rows in [1usize << 16, 1 << 20] {
        let el = gen::gnm((rows / 8) as u32, rows as u64, 77);
        let cg = CGraph::from_edge_list(&el);
        let mut grp = c.benchmark_group("holding_plane");
        grp.throughput(Throughput::Elements(rows as u64));
        grp.sample_size(10);
        grp.bench_with_input(BenchmarkId::new("incident_counts", rows), &cg, |b, cg| {
            b.iter_batched(
                || cg.clone(),
                |mut cg| cg.incident_counts().to_vec(),
                criterion::BatchSize::LargeInput,
            )
        });
        grp.bench_with_input(BenchmarkId::new("reduce_holding", rows), &cg, |b, cg| {
            b.iter_batched(
                || cg.clone(),
                |mut cg| mnd_kernels::reduce::reduce_holding(&mut cg),
                criterion::BatchSize::LargeInput,
            )
        });
        grp.finish();
    }
}

/// Union-find micro-costs (the inner loop of every kernel).
fn bench_union_find(c: &mut Criterion) {
    let n = 100_000u32;
    let mut grp = c.benchmark_group("union_find");
    grp.throughput(Throughput::Elements(n as u64));
    grp.bench_function("sequential_union_chain", |b| {
        b.iter(|| {
            let mut d = DisjointSets::new(n as usize);
            for i in 0..n - 1 {
                d.union(i, i + 1);
            }
            d.num_sets()
        })
    });
    grp.bench_function("find_after_compression", |b| {
        let mut d = DisjointSets::new(n as usize);
        for i in 0..n - 1 {
            d.union(i, i + 1);
        }
        b.iter(|| {
            let mut acc = 0u64;
            for i in (0..n).step_by(97) {
                acc += d.find(i) as u64;
            }
            acc
        })
    });
    grp.finish();
}

/// Graph generation + partitioning substrate (§3.1).
fn bench_partitioning(c: &mut Criterion) {
    let el = Preset::Uk2007.generate(16384, 3);
    let g = CsrGraph::from_edge_list(&el);
    let mut grp = c.benchmark_group("partitioning");
    grp.sample_size(30);
    grp.bench_function("csr_build", |b| b.iter(|| CsrGraph::from_edge_list(&el)));
    grp.bench_function("partition_1d_x16", |b| {
        b.iter(|| mnd_graph::partition_1d(&g, 16, 0.0))
    });
    grp.bench_function("degree_binning", |b| {
        b.iter(|| mnd_kernels::binning::bin_graph(&g))
    });
    grp.finish();
}

/// Generator throughput (workload production for all experiments).
fn bench_generators(c: &mut Criterion) {
    let mut grp = c.benchmark_group("generators");
    grp.sample_size(15);
    grp.bench_function("web_crawl_100k", |b| {
        b.iter(|| gen::web_crawl(20_000, 100_000, gen::CrawlParams::default(), 1))
    });
    grp.bench_function("rmat_100k", |b| {
        b.iter(|| gen::rmat(16_384, 100_000, gen::RmatProbs::GRAPH500, 1))
    });
    grp.bench_function("road_grid_100k", |b| {
        b.iter(|| gen::road_grid(280, 180, 0.02, 0.38, 1))
    });
    grp.finish();
}

criterion_group!(
    benches,
    bench_mst_kernels,
    bench_exception_conditions,
    bench_reductions,
    bench_holding_plane,
    bench_union_find,
    bench_partitioning,
    bench_generators
);
criterion_main!(benches);
