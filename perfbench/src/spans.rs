//! Phase spans of a traced run, recorded from outside the driver through
//! its `PhaseObserver` hook.
//!
//! The driver calls `on_phase` on a rank's thread each time that rank
//! finishes an observed stretch of a phase. A span runs from the same
//! rank's previous callback (or from the run start) to this callback, so a
//! rank's spans tile its timeline without gaps; the wait for slower peers
//! inside a collective lands in the phase that waits. Every phase span is a
//! child of the one run span and has no children of its own, so its self
//! time equals its duration.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use mnd_hypar::{PhaseKind, PhaseObserver, PhaseSample};

/// One phase span on one rank.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which phase the callback reported.
    pub kind: PhaseKind,
    /// Start, nanoseconds after the run start.
    pub start_ns: u64,
    /// End (the callback), nanoseconds after the run start.
    pub end_ns: u64,
    /// The simulated time and traffic the driver attributed to the stretch.
    pub sample: PhaseSample,
}

impl Span {
    fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct Timeline {
    /// Per rank: the end of its latest span.
    last_ns: Vec<u64>,
    spans: Vec<Span>,
}

/// The observer: keeps every span in memory until the run is summarised.
pub struct SpanRecorder {
    origin: Instant,
    timeline: Mutex<Timeline>,
}

impl SpanRecorder {
    /// A recorder whose clock starts now; create it right before the run.
    pub fn start() -> Self {
        SpanRecorder {
            origin: Instant::now(),
            timeline: Mutex::new(Timeline::default()),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// The recorded spans, ordered by rank, then time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .timeline
            .lock()
            .expect("a rank panicked while recording a span")
            .spans
            .clone();
        spans.sort_by_key(|s| (s.sample.rank, s.end_ns));
        spans
    }
}

impl PhaseObserver for SpanRecorder {
    fn on_phase(&self, kind: PhaseKind, sample: &PhaseSample) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut t = self
            .timeline
            .lock()
            .expect("a rank panicked while recording a span");
        let rank = sample.rank as usize;
        if t.last_ns.len() <= rank {
            t.last_ns.resize(rank + 1, 0);
        }
        let start_ns = std::mem::replace(&mut t.last_ns[rank], end_ns);
        t.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            sample: *sample,
        });
    }
}

/// One phase, aggregated over a run's spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTotals {
    /// Slowest rank's summed span time.
    pub wall_s: f64,
    /// Slowest rank's summed simulated compute.
    pub sim_comp_s: f64,
    /// Slowest rank's summed simulated communication.
    pub sim_comm_s: f64,
    /// Bytes sent, all ranks.
    pub bytes: u64,
    /// Messages sent, all ranks.
    pub messages: u64,
    /// Most callbacks on one rank (recursion rounds show here).
    pub samples: u64,
}

/// A traced run, summarised.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Per phase, in `PhaseKind::ALL` order.
    pub phases: [PhaseTotals; 5],
    /// Run wall not covered by any rank's spans.
    pub unattributed_s: f64,
    /// Share of the run wall covered by spans.
    pub coverage: f64,
}

fn phase_index(kind: PhaseKind) -> usize {
    PhaseKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("PhaseKind::ALL lists every kind")
}

/// Summarises `spans` of a run that took `run_wall_s`.
pub fn summarize(spans: &[Span], run_wall_s: f64) -> TraceSummary {
    let ranks = spans
        .iter()
        .map(|s| s.sample.rank as usize + 1)
        .max()
        .unwrap_or(0);
    let mut per_rank = vec![[PhaseTotals::default(); 5]; ranks];
    let mut covered_ns = 0u64;
    for s in spans {
        let t = &mut per_rank[s.sample.rank as usize][phase_index(s.kind)];
        t.wall_s += s.wall_s();
        t.sim_comp_s += s.sample.compute_time;
        t.sim_comm_s += s.sample.comm_time;
        t.bytes += s.sample.bytes_sent;
        t.messages += s.sample.messages_sent;
        t.samples += 1;
        // Each rank's spans tile [0, its last callback], so the union of
        // all spans is [0, the latest callback].
        covered_ns = covered_ns.max(s.end_ns);
    }
    let mut phases = [PhaseTotals::default(); 5];
    for rank in &per_rank {
        for (p, t) in phases.iter_mut().zip(rank) {
            p.wall_s = p.wall_s.max(t.wall_s);
            p.sim_comp_s = p.sim_comp_s.max(t.sim_comp_s);
            p.sim_comm_s = p.sim_comm_s.max(t.sim_comm_s);
            p.bytes += t.bytes;
            p.messages += t.messages;
            p.samples = p.samples.max(t.samples);
        }
    }
    let covered_s = covered_ns as f64 * 1e-9;
    TraceSummary {
        phases,
        unattributed_s: (run_wall_s - covered_s).max(0.0),
        coverage: if run_wall_s > 0.0 {
            (covered_s / run_wall_s).min(1.0)
        } else {
            0.0
        },
    }
}

/// Renders the run span and its phase spans as JSON lines. Every line
/// carries `run_id`; phase spans name the run span as their parent.
pub fn to_jsonl(run_id: &str, spans: &[Span], run_wall_s: f64) -> String {
    let mut out = String::new();
    let run_ns = (run_wall_s * 1e9) as u64;
    writeln!(
        out,
        "{{\"run_id\":\"{run_id}\",\"span\":\"run\",\"parent\":null,\"rank\":null,\"start_ns\":0,\"end_ns\":{run_ns}}}"
    )
    .expect("writing to a String cannot fail");
    for s in spans {
        writeln!(
            out,
            "{{\"run_id\":\"{run_id}\",\"span\":\"{}\",\"parent\":\"run\",\"rank\":{},\"level\":{},\"start_ns\":{},\"end_ns\":{},\"sim_comp_s\":{},\"sim_comm_s\":{},\"bytes\":{},\"messages\":{}}}",
            s.kind.name(),
            s.sample.rank,
            s.sample.level,
            s.start_ns,
            s.end_ns,
            s.sample.compute_time,
            s.sample.comm_time,
            s.sample.bytes_sent,
            s.sample.messages_sent,
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: PhaseKind, rank: u32, start_ns: u64, end_ns: u64, bytes: u64) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            sample: PhaseSample {
                rank,
                bytes_sent: bytes,
                messages_sent: 1,
                compute_time: 0.5,
                ..Default::default()
            },
        }
    }

    #[test]
    fn slowest_rank_sets_phase_wall_and_traffic_sums() {
        let spans = [
            span(PhaseKind::Partition, 0, 0, 1_000_000_000, 10),
            span(PhaseKind::IndComp, 0, 1_000_000_000, 1_500_000_000, 5),
            span(PhaseKind::IndComp, 0, 1_500_000_000, 1_750_000_000, 5),
            span(PhaseKind::Partition, 1, 0, 1_200_000_000, 7),
            span(PhaseKind::IndComp, 1, 1_200_000_000, 1_800_000_000, 1),
        ];
        let s = summarize(&spans, 2.0);
        let part = s.phases[phase_index(PhaseKind::Partition)];
        assert!((part.wall_s - 1.2).abs() < 1e-9);
        assert_eq!(part.bytes, 17);
        assert_eq!(part.samples, 1);
        let ind = s.phases[phase_index(PhaseKind::IndComp)];
        assert!((ind.wall_s - 0.75).abs() < 1e-9);
        assert!((ind.sim_comp_s - 1.0).abs() < 1e-9);
        assert_eq!(ind.samples, 2);
        assert_eq!(ind.messages, 3);
        assert!((s.coverage - 0.9).abs() < 1e-9);
        assert!((s.unattributed_s - 0.2).abs() < 1e-9);
    }

    #[test]
    fn recorder_chains_spans_per_rank() {
        let rec = SpanRecorder::start();
        let sample = |rank| PhaseSample {
            rank,
            ..Default::default()
        };
        rec.on_phase(PhaseKind::Partition, &sample(1));
        rec.on_phase(PhaseKind::Partition, &sample(0));
        rec.on_phase(PhaseKind::IndComp, &sample(1));
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].sample.rank, 0);
        assert_eq!(spans[0].start_ns, 0);
        assert_eq!(spans[1].start_ns, 0);
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        let jsonl = to_jsonl("w/1", &spans, 1.0);
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.lines().all(|l| l.contains("\"run_id\":\"w/1\"")));
    }
}
