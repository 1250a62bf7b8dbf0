//! Distributed BFS with the divide-and-conquer execution model.
//!
//! §4.1.2 of the paper names BFS as the other application the HyPar API
//! carries ("execution of a graph application/algorithm like BFS, MST
//! etc."), with `EXCPT_BORDER_VERTEX` stopping local exploration at the
//! partition border. This module is that application:
//!
//! * **indComp** — every rank runs BFS *to a local fixpoint* inside its
//!   partition (not one level at a time!), starting from whatever frontier
//!   it has;
//! * **mergeParts** — distance candidates for ghost vertices (border
//!   crossings) are exchanged with min-combining;
//! * repeat until a global round produces no improvement.
//!
//! The divide-and-conquer benefit shows directly: global rounds count the
//! number of times the wave crosses partition borders (≈ a handful on a
//! locality-rich graph), instead of one superstep per BFS *level* as in
//! the BSP formulation (`mnd_pregel::bfs`) — the same communication
//! compression MND-MST gets for MST.

use mnd_device::NodePlatform;
use mnd_graph::partition::{owner_of, partition_1d};
use mnd_graph::types::VertexId;
use mnd_graph::{CsrGraph, EdgeList};
use mnd_net::{Cluster, Comm, RankStats};

/// Result of a distributed BFS.
#[derive(Clone, Debug)]
pub struct BfsReport {
    /// Hop distance from the source per vertex (`u64::MAX` = unreachable).
    pub dist: Vec<u64>,
    /// Simulated makespan.
    pub total_time: f64,
    /// Max communication time across ranks.
    pub comm_time: f64,
    /// Global exchange rounds (border crossings), *not* BFS levels.
    pub rounds: u64,
    /// Per-rank statistics.
    pub rank_stats: Vec<RankStats>,
}

/// Runs BFS from `source` over `nranks` simulated nodes.
pub fn distributed_bfs(
    el: &EdgeList,
    source: VertexId,
    nranks: usize,
    platform: &NodePlatform,
    sim_scale: f64,
) -> BfsReport {
    assert!(source < el.num_vertices(), "source out of range");
    assert!(nranks >= 1);
    let csr = CsrGraph::from_edge_list(el);
    let cluster = Cluster::new(nranks, platform.network.scaled(sim_scale));
    let outcomes = cluster.run(|comm| rank_bfs(comm, &csr, source, platform, sim_scale));

    let total_time = Cluster::makespan(&outcomes);
    let mut dist = None;
    let mut rounds = 0;
    let mut rank_stats = Vec::new();
    for o in &outcomes {
        let (d, r) = &o.result;
        if let Some(d) = d {
            dist = Some(d.clone());
        }
        rounds = rounds.max(*r);
        rank_stats.push(o.stats.clone());
    }
    let comm_time = rank_stats.iter().map(|s| s.comm_time).fold(0.0, f64::max);
    BfsReport {
        dist: dist.expect("rank 0 gathers distances"),
        total_time,
        comm_time,
        rounds,
        rank_stats,
    }
}

fn rank_bfs(
    comm: &Comm,
    csr: &CsrGraph,
    source: VertexId,
    platform: &NodePlatform,
    sim_scale: f64,
) -> (Option<Vec<u64>>, u64) {
    let me = comm.rank();
    let p = comm.size();
    let charge = |items: u64| {
        let m = &platform.cpu;
        comm.compute(items as f64 * sim_scale / (m.edge_throughput * m.efficiency));
    };
    let ranges = partition_1d(csr, p, 0.0);
    let my = ranges[me];
    let lo = my.start;
    let count = (my.end - my.start) as usize;

    let mut dist = vec![u64::MAX; count];
    let mut frontier: Vec<VertexId> = Vec::new();
    if my.contains(source) {
        dist[(source - lo) as usize] = 0;
        frontier.push(source);
    }

    let mut rounds = 0u64;
    loop {
        // --- indComp: local BFS to fixpoint, collecting border candidates.
        let mut border: Vec<Vec<(VertexId, u64)>> = (0..p).map(|_| Vec::new()).collect();
        let mut scanned = 0u64;
        let mut queue: std::collections::VecDeque<VertexId> = frontier.drain(..).collect();
        while let Some(u) = queue.pop_front() {
            let du = dist[(u - lo) as usize];
            for (v, _) in csr.neighbors(u) {
                scanned += 1;
                if my.contains(v) {
                    let dv = &mut dist[(v - lo) as usize];
                    if *dv > du + 1 {
                        *dv = du + 1;
                        queue.push_back(v);
                    }
                } else {
                    border[owner_of(&ranges, v)].push((v, du + 1));
                }
            }
        }
        charge(scanned);
        // Min-combine per destination vertex before sending.
        for b in border.iter_mut() {
            b.sort_unstable();
            b.dedup_by_key(|(v, _)| *v);
        }

        // --- mergeParts: candidate exchange + global convergence test.
        let inbound = comm.alltoallv(border);
        let mut improved = 0u64;
        for b in inbound {
            for (v, d) in b {
                debug_assert!(my.contains(v));
                let dv = &mut dist[(v - lo) as usize];
                if *dv > d {
                    *dv = d;
                    frontier.push(v);
                    improved += 1;
                }
            }
        }
        charge(improved);
        rounds += 1;
        if comm.allreduce_u64(improved, |a, b| a + b) == 0 {
            break;
        }
    }

    // Gather distances at rank 0 (range order = vertex order).
    let gathered = comm.gather_vec(0, dist);
    (
        gathered.map(|parts| parts.into_iter().flatten().collect()),
        rounds,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::components::bfs_distances;
    use mnd_graph::gen;

    fn check(el: &EdgeList, source: VertexId, nranks: usize) -> BfsReport {
        let r = distributed_bfs(el, source, nranks, &NodePlatform::amd_cluster(), 1.0);
        let oracle = bfs_distances(&CsrGraph::from_edge_list(el), source);
        assert_eq!(r.dist, oracle, "nranks={nranks} source={source}");
        r
    }

    #[test]
    fn matches_sequential_on_families() {
        for (el, name) in [
            (gen::path(50, 1), "path"),
            (gen::cycle(40, 2), "cycle"),
            (gen::gnm(300, 1200, 3), "gnm"),
            (
                gen::web_crawl(500, 4000, gen::CrawlParams::default(), 4),
                "crawl",
            ),
            (gen::road_grid(15, 15, 0.02, 0.38, 5), "road"),
        ] {
            for nranks in [1, 3, 5] {
                check(&el, 0, nranks);
            }
            let _ = name;
        }
    }

    #[test]
    fn source_in_any_partition() {
        let el = gen::gnm(400, 1600, 7);
        for source in [0, 150, 399] {
            check(&el, source, 4);
        }
    }

    #[test]
    fn unreachable_vertices_stay_max() {
        let u = gen::disconnected_union(&[gen::path(10, 1), gen::path(10, 2)]);
        let r = check(&u, 0, 3);
        assert!(r.dist[10..].iter().all(|&d| d == u64::MAX));
    }

    #[test]
    fn rounds_are_crossings_not_levels() {
        // A long path within one partition: the wave crosses each border
        // once, so rounds ≈ nranks + 1, far below the path's length (= the
        // level count a BSP BFS would need).
        let el = gen::path(1000, 9);
        let r = check(&el, 0, 4);
        assert!(
            r.rounds <= 6,
            "rounds {} should be ~crossings, not levels",
            r.rounds
        );
    }

    #[test]
    fn deterministic() {
        let el = gen::watts_strogatz(200, 6, 0.2, 11);
        let a = distributed_bfs(&el, 5, 4, &NodePlatform::amd_cluster(), 1.0);
        let b = distributed_bfs(&el, 5, 4, &NodePlatform::amd_cluster(), 1.0);
        assert_eq!(a.dist, b.dist);
        assert_eq!(a.total_time, b.total_time);
    }
}
