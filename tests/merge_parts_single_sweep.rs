//! mergeParts applies every peer's ghost-parent bucket in one sweep. The
//! sweep relies on two facts the debug build asserts per rank: no `old` id
//! arrives from two peers, and no received `new` id is renamed in the same
//! round. This drives those assertions hard: `ghost_phase_size = 1` splits
//! every exchange into one-pair phases, at 16 and 64 ranks, on crawl-like,
//! scattered-web and road presets. Each run must return Kruskal's forest,
//! and two runs must agree on the simulated clock and per-rank bytes.

use mnd::graph::presets::Preset;
use mnd::kernels::kruskal_msf;
use mnd::mst::MndMstRunner;

#[test]
fn one_pair_phases_stay_correct_and_deterministic() {
    // Scale divisors picked for about 60K edges each.
    for (preset, scale_div) in [
        (Preset::Uk2007, 1 << 16),
        (Preset::Gsh2015Tpd, 1 << 14),
        (Preset::RoadUsa, 1 << 9),
    ] {
        let el = preset.generate(scale_div, 5);
        let oracle = kruskal_msf(&el);
        for nranks in [16, 64] {
            let run = || {
                let mut runner = MndMstRunner::new(nranks);
                runner.ghost_phase_size = 1;
                runner.run(&el)
            };
            let (first, second) = (run(), run());
            let what = format!("{} at {nranks} ranks", preset.name());
            assert_eq!(first.msf, oracle, "{what}: forest != Kruskal");
            assert_eq!(second.msf, oracle, "{what}: forest != Kruskal");
            assert_eq!(
                first.total_time.to_bits(),
                second.total_time.to_bits(),
                "{what}: simulated makespan differs between runs"
            );
            let bytes = |r: &mnd::mst::MndMstReport| {
                r.rank_stats
                    .iter()
                    .map(|s| s.bytes_sent)
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                bytes(&first),
                bytes(&second),
                "{what}: per-rank bytes differ"
            );
        }
    }
}
