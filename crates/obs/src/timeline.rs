//! Plain-text per-processor timelines.
//!
//! An event-density view of a [`Recording`]: how busy each processor's
//! observability stream is over time — migration storms and fetch bursts
//! show up as dark cells. It is fixed-width ASCII-art meant for terminals
//! and CI logs, not precision — the Chrome trace is the precise view.

use crate::Recording;
use std::fmt::Write as _;

/// Shade ramp from idle to saturated.
const RAMP: [char; 5] = [' ', '.', ':', '+', '#'];

fn shade(frac: f64) -> char {
    let idx = (frac.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).ceil() as usize;
    RAMP[idx.min(RAMP.len() - 1)]
}

/// Event-density timeline: one row per processor, `width` time cells
/// spanning the recording's timestamp range; cell shade is that
/// processor's event count in the slice relative to the busiest cell.
pub fn event_timeline(rec: &Recording, width: usize) -> String {
    let width = width.max(1);
    let Some((lo, hi)) = rec.ts_bounds() else {
        return "(no events recorded)\n".to_string();
    };
    let span = (hi - lo).max(1);
    let mut cells = vec![vec![0u64; width]; rec.procs];
    for lane in &rec.lanes {
        for e in &lane.events {
            let cell = ((e.ts - lo) as u128 * width as u128 / (span as u128 + 1)) as usize;
            cells[e.proc as usize][cell.min(width - 1)] += 1;
        }
    }
    let peak = cells
        .iter()
        .flat_map(|row| row.iter())
        .copied()
        .max()
        .unwrap_or(0)
        .max(1);
    let mut out = String::new();
    let unit = if rec.lanes.iter().any(|l| l.nanos) {
        "ns"
    } else {
        "ticks"
    };
    let _ = writeln!(
        out,
        "event density, {} events over [{lo}, {hi}] {unit} (peak {peak}/cell)",
        rec.events_stored()
    );
    for (p, row) in cells.iter().enumerate() {
        let total: u64 = row.iter().sum();
        let bar: String = row.iter().map(|&n| shade(n as f64 / peak as f64)).collect();
        let _ = writeln!(out, "p{p:02} |{bar}| {total}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Recorder, Recording};

    #[test]
    fn event_timeline_rows_per_proc() {
        let mut r = Recorder::sim();
        for _ in 0..10 {
            r.instant(EventKind::LineFetch, 0, 1);
        }
        r.instant(EventKind::Steal, 1, 0);
        let rec = Recording::new(2, vec![r.into_lane("sim".to_string())]);
        let text = event_timeline(&rec, 20);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 procs");
        assert!(lines[1].starts_with("p00 |"));
        assert!(lines[1].ends_with(" 10"));
        assert!(lines[2].ends_with(" 1"));
        // Row width is fixed.
        assert_eq!(lines[1].find('|'), lines[2].find('|'));
    }

    #[test]
    fn empty_recording_is_handled() {
        let rec = Recording::new(2, vec![]);
        assert!(event_timeline(&rec, 10).contains("no events"));
    }
}
