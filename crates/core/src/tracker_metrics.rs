//! Per-tracker gauges and counters, and their CSV and JSON exports.
//!
//! The paper's evaluation reports aggregates; operating the mechanism
//! needs the per-tracker view — which IAgent is saturated, whose mailbox
//! is filling, who failed the locates that gave up. Behaviours update
//! their row through the scheme's [`SharedSchemeStats`] from inside agent
//! callbacks; experiment drivers take [`SharedSchemeStats::tracker_rows`]
//! at the end of a run and export it.
//!
//! [`SharedSchemeStats`]: crate::SharedSchemeStats
//! [`SharedSchemeStats::tracker_rows`]: crate::SharedSchemeStats::tracker_rows

use std::fmt::Write as _;

/// Live metrics for one tracker (IAgent or equivalent directory node).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackerMetrics {
    /// Protocol messages this tracker has handled.
    pub requests: u64,
    /// Pending-locate queue depth at the last observation.
    pub queue_depth: usize,
    /// Largest pending-locate queue depth ever observed.
    pub queue_depth_peak: usize,
    /// Mailbox occupancy at the last observation.
    pub mailbox_occupancy: usize,
    /// Largest mailbox occupancy ever observed.
    pub mailbox_occupancy_peak: usize,
    /// Windowed request rate (messages/s) at the last observation.
    pub rate_per_sec: f64,
    /// Directory records held at the last observation.
    pub records_held: usize,
    /// Guaranteed-delivery messages buffered while targets migrated.
    pub mail_buffered: u64,
    /// Buffered messages flushed to re-registered targets.
    pub mail_flushed: u64,
    /// Buffered messages dropped after their TTL expired.
    pub mail_lost: u64,
    /// Locates against this tracker abandoned because the final attempt
    /// timed out unanswered (tracker crashed, partitioned, or saturated).
    pub giveup_timeout: u64,
    /// Locates against this tracker abandoned on an explicit negative
    /// answer (`NotFound`/`NotResponsible` on the final attempt).
    pub giveup_negative: u64,
    /// Of [`giveup_timeout`](Self::giveup_timeout), how many hit a
    /// tracker on a *different node* than the querier — the signature of
    /// a severed inter-region link, as opposed to a local overload.
    pub giveup_timeout_remote: u64,
    /// Of [`giveup_negative`](Self::giveup_negative), how many came from
    /// a tracker on a different node than the querier.
    pub giveup_negative_remote: u64,
}

impl TrackerMetrics {
    /// Observes the current queue depth, updating the gauge and peak.
    pub fn observe_queue_depth(&mut self, depth: usize) {
        self.queue_depth = depth;
        self.queue_depth_peak = self.queue_depth_peak.max(depth);
    }

    /// Observes the current mailbox occupancy, updating gauge and peak.
    pub fn observe_mailbox(&mut self, occupancy: usize) {
        self.mailbox_occupancy = occupancy;
        self.mailbox_occupancy_peak = self.mailbox_occupancy_peak.max(occupancy);
    }
}

/// A point-in-time copy of every tracker's row, ready for export.
///
/// Rows are sorted by tracker id, so rendering the same simulation twice
/// yields byte-identical output — the determinism gate diffs these files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackerRows {
    /// Per-tracker metrics, ordered by tracker id.
    pub trackers: Vec<(u64, TrackerMetrics)>,
}

impl TrackerRows {
    /// Header of the per-tracker CSV produced by [`Self::to_csv`].
    pub const CSV_HEADER: &'static str = "tracker,requests,rate_per_sec,queue_depth,\
queue_depth_peak,mailbox_occupancy,mailbox_occupancy_peak,records_held,\
mail_buffered,mail_flushed,mail_lost,giveup_timeout,giveup_negative,\
giveup_timeout_remote,giveup_negative_remote";

    /// Renders the rows as CSV (header + one row per tracker).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        out.push('\n');
        for (id, t) in &self.trackers {
            let _ = writeln!(
                out,
                "{id},{},{:.3},{},{},{},{},{},{},{},{},{},{},{},{}",
                t.requests,
                t.rate_per_sec,
                t.queue_depth,
                t.queue_depth_peak,
                t.mailbox_occupancy,
                t.mailbox_occupancy_peak,
                t.records_held,
                t.mail_buffered,
                t.mail_flushed,
                t.mail_lost,
                t.giveup_timeout,
                t.giveup_negative,
                t.giveup_timeout_remote,
                t.giveup_negative_remote,
            );
        }
        out
    }

    /// Renders the rows as a JSON document, keys in a fixed order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"trackers\": [");
        for (i, (id, t)) in self.trackers.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"tracker\": {id}, \"requests\": {}, \"rate_per_sec\": {:.3}, \
                 \"queue_depth\": {}, \"queue_depth_peak\": {}, \"mailbox_occupancy\": {}, \
                 \"mailbox_occupancy_peak\": {}, \"records_held\": {}, \"mail_buffered\": {}, \
                 \"mail_flushed\": {}, \"mail_lost\": {}, \"giveup_timeout\": {}, \
                 \"giveup_negative\": {}, \"giveup_timeout_remote\": {}, \
                 \"giveup_negative_remote\": {}}}",
                if i == 0 { "" } else { "," },
                t.requests,
                t.rate_per_sec,
                t.queue_depth,
                t.queue_depth_peak,
                t.mailbox_occupancy,
                t.mailbox_occupancy_peak,
                t.records_held,
                t.mail_buffered,
                t.mail_flushed,
                t.mail_lost,
                t.giveup_timeout,
                t.giveup_negative,
                t.giveup_timeout_remote,
                t.giveup_negative_remote,
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedSchemeStats;

    #[test]
    fn tracker_gauges_track_peaks() {
        let stats = SharedSchemeStats::new();
        stats.update_tracker(1, |t| t.observe_queue_depth(5));
        stats.update_tracker(1, |t| t.observe_queue_depth(2));
        stats.update_tracker(1, |t| {
            t.observe_mailbox(3);
            t.mail_lost += 2;
        });
        let rows = stats.tracker_rows();
        let (id, t) = &rows.trackers[0];
        assert_eq!(*id, 1);
        assert_eq!(t.queue_depth, 2);
        assert_eq!(t.queue_depth_peak, 5);
        assert_eq!(t.mailbox_occupancy_peak, 3);
        assert_eq!(t.mail_lost, 2);
    }

    #[test]
    fn exports_are_deterministic_and_well_formed() {
        let stats = SharedSchemeStats::new();
        stats.update_tracker(2, |t| t.requests = 10);
        stats.update_tracker(1, |t| {
            t.requests = 4;
            t.rate_per_sec = 1.25;
        });
        let a = stats.tracker_rows();
        let b = stats.tracker_rows();
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_json(), b.to_json());
        let csv = a.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(TrackerRows::CSV_HEADER));
        assert!(csv.contains("\n1,4,1.250,"));
        assert!(csv.lines().nth(1).unwrap().ends_with(",0,0"));
        assert!(a.to_json().contains("\"giveup_timeout\": 0"));
        assert!(a.to_json().contains("\"giveup_timeout_remote\": 0"));
        assert!(TrackerRows::CSV_HEADER.ends_with("giveup_negative_remote"));
        assert!(csv.contains("\n2,10,"));
        let json = a.to_json();
        assert!(json.contains("\"rate_per_sec\": 1.250"));
    }

    #[test]
    fn empty_rows_export_cleanly() {
        let rows = SharedSchemeStats::new().tracker_rows();
        assert_eq!(rows.to_csv(), format!("{}\n", TrackerRows::CSV_HEADER));
        assert!(rows.to_json().contains("\"trackers\": [\n  ]"));
    }
}
