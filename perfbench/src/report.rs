//! Output: named metrics with units, the one-line JSON result, and the
//! host provenance printed with every result.

use std::fmt::Write as _;
use std::process::Command;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-text context printed after the value (sample counts, spread).
    pub note: String,
}

/// An ordered list of metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    pub fn push_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    /// Prints one `metric <name> <value> <unit> [note]` line per metric.
    pub fn print(&self) {
        for m in &self.0 {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "metric {:<34} {:>18} {}{note}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
    }
}

/// A finite number as JSON; anything else as `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// The median of `xs` (mean of the middle two for even lengths); NaN if
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `median of N; min a, max b` for a sample of seconds.
pub fn spread_note(xs: &[f64]) -> String {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("median of {}; min {min:.4}, max {max:.4}", xs.len())
}

/// What the host offers the run, recorded so results from different hosts
/// are never compared silently.
#[derive(Clone, Debug)]
pub struct Host {
    /// `nproc` (CPUs this process may run on), if the tool is present.
    pub nproc: Option<usize>,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `RAYON_NUM_THREADS` as inherited.
    pub rayon_inherited: Option<String>,
    /// `RAYON_NUM_THREADS` as the runs see it.
    pub rayon_threads: usize,
}

impl Host {
    /// Detects the host and pins `RAYON_NUM_THREADS` to at most `nproc`
    /// (the default when unset or invalid). Call before spawning threads.
    pub fn detect_and_pin() -> Host {
        let available_parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let nproc = Command::new("nproc")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<usize>().ok());
        let cap = nproc.unwrap_or(available_parallelism).max(1);
        let rayon_inherited = std::env::var("RAYON_NUM_THREADS").ok();
        let rayon_threads = rayon_inherited
            .as_deref()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(cap)
            .min(cap);
        std::env::set_var("RAYON_NUM_THREADS", rayon_threads.to_string());
        Host {
            nproc,
            available_parallelism,
            rayon_inherited,
            rayon_threads,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc={} available_parallelism={} RAYON_NUM_THREADS={} (inherited: {})",
            self.nproc.map_or("unknown".to_string(), |n| n.to_string()),
            self.available_parallelism,
            self.rayon_threads,
            self.rayon_inherited.as_deref().unwrap_or("unset"),
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        m.push("bad", f64::NAN, "s");
        assert_eq!(
            json_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"bad\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
