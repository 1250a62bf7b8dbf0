//! Golden values of the simulated clock. A host-side optimisation of the
//! holding plane must not move a single simulated byte, message or
//! second, so this pins, bit for bit, what a 16-rank run reports on the
//! crawl, scattered-web and road presets: makespan, communication time,
//! bytes and messages sent per rank, merge levels, ring rounds and the
//! forest. The scale divisors (also the runs' `sim_scale`) give about 60K
//! edges each, so the test stays a few seconds in a debug build.
//!
//! A change that moves the simulated clock on purpose updates the
//! constants here and says why.

use mnd::graph::presets::Preset;
use mnd::hypar::HyParConfig;
use mnd::kernels::kruskal_msf;
use mnd::mst::MndMstRunner;

struct Golden {
    preset: Preset,
    scale_div: u64,
    edges: usize,
    total_time_bits: u64,
    comm_time_bits: u64,
    levels: usize,
    exchange_rounds: usize,
    forest_edges: usize,
    forest_weight: u128,
    bytes: [u64; 16],
    messages: [u64; 16],
}

const GOLDEN: [Golden; 3] = [
    Golden {
        preset: Preset::Uk2007,
        scale_div: 1 << 16,
        edges: 66688,
        total_time_bits: 0x4061_8dfc_ec8b_6a36,
        comm_time_bits: 0x4059_f3f3_f03b_95ca,
        levels: 2,
        exchange_rounds: 3,
        forest_edges: 1601,
        forest_weight: 25_060_676,
        bytes: [
            458133, 204556, 262192, 231143, 536835, 224734, 284042, 237447, 582483, 211187, 264486,
            222755, 510593, 201783, 258133, 227170,
        ],
        messages: [
            252, 96, 144, 81, 206, 96, 144, 96, 254, 96, 159, 96, 206, 96, 144, 81,
        ],
    },
    Golden {
        preset: Preset::Gsh2015Tpd,
        scale_div: 1 << 14,
        edges: 63609,
        total_time_bits: 0x4049_b22c_1775_5e40,
        comm_time_bits: 0x4042_4abe_9102_5a13,
        levels: 2,
        exchange_rounds: 1,
        forest_edges: 1878,
        forest_weight: 34_296_234,
        bytes: [
            423752, 165764, 210014, 163090, 798852, 164113, 211079, 164658, 857762, 165057, 214670,
            164538, 791782, 165625, 215459, 165942,
        ],
        messages: [
            153, 61, 90, 61, 126, 61, 90, 61, 155, 61, 90, 61, 129, 61, 90, 61,
        ],
    },
    Golden {
        preset: Preset::RoadUsa,
        scale_div: 1 << 9,
        edges: 57748,
        total_time_bits: 0x3ffa_14c6_aa3a_0cac,
        comm_time_bits: 0x3ff9_7fb4_41a7_8126,
        levels: 2,
        exchange_rounds: 0,
        forest_edges: 44808,
        forest_weight: 19_220_918_804,
        bytes: [
            1562901, 424911, 808778, 422903, 1207655, 424813, 811369, 424431, 1592049, 422693,
            811613, 423661, 1198957, 423821, 809705, 417666,
        ],
        messages: [
            51, 18, 30, 18, 44, 18, 30, 18, 56, 18, 30, 18, 43, 18, 30, 16,
        ],
    },
];

#[test]
fn sixteen_rank_runs_reproduce_the_recorded_simulated_clock() {
    for g in &GOLDEN {
        let name = g.preset.name();
        let el = g.preset.generate(g.scale_div, 1);
        assert_eq!(el.len(), g.edges, "{name}: generator drifted");
        let report = MndMstRunner::new(16)
            .with_config(HyParConfig::default().with_sim_scale(g.scale_div as f64))
            .run(&el);
        assert_eq!(report.msf, kruskal_msf(&el), "{name}: forest != Kruskal");
        assert_eq!(
            report.msf.edges.len(),
            g.forest_edges,
            "{name}: forest size"
        );
        assert_eq!(report.msf.weight, g.forest_weight, "{name}: forest weight");
        assert_eq!(
            report.total_time.to_bits(),
            g.total_time_bits,
            "{name}: makespan {} s",
            report.total_time
        );
        assert_eq!(
            report.comm_time.to_bits(),
            g.comm_time_bits,
            "{name}: comm time {} s",
            report.comm_time
        );
        let bytes: Vec<u64> = report.rank_stats.iter().map(|s| s.bytes_sent).collect();
        let messages: Vec<u64> = report.rank_stats.iter().map(|s| s.messages_sent).collect();
        assert_eq!(bytes, g.bytes, "{name}: bytes sent per rank");
        assert_eq!(messages, g.messages, "{name}: messages sent per rank");
        assert_eq!(report.levels, g.levels, "{name}: merge levels");
        assert_eq!(
            report.exchange_rounds, g.exchange_rounds,
            "{name}: ring rounds"
        );
    }
}
