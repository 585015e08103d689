//! Deterministic trace exporters.
//!
//! Both exporters hand-build their output strings (no float formatting
//! beyond fixed-precision microseconds, no map iteration over unordered
//! containers), so for a fixed seed the bytes are identical no matter
//! how many worker threads produced the experiment cells.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::span::SpanTree;

/// Microseconds with fixed three-decimal precision, the Chrome
/// trace-event time unit.
fn us(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1000.0)
}

/// Exports span trees as Chrome/Perfetto trace-event JSON.
///
/// Each tree becomes one complete (`"ph":"X"`) event for the root plus
/// one per child span, all on track `pid = corr.origin`,
/// `tid = corr.seq`; markers become instant (`"ph":"i"`) events. Open
/// the result in `chrome://tracing` or <https://ui.perfetto.dev>.
#[must_use]
pub fn to_perfetto_json(trees: &[SpanTree]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for tree in trees {
        let pid = tree.corr.origin;
        let tid = tree.corr.seq;
        let mut event = |body: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&body);
        };
        event(
            format!(
                "{{\"name\":\"locate {}\",\"cat\":\"locate\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid}}}",
                tree.corr,
                us(tree.start.as_nanos()),
                us(tree.duration().as_nanos()),
            ),
            &mut out,
        );
        for child in &tree.children {
            event(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid}}}",
                    child.label,
                    child.phase.name(),
                    us(child.start.as_nanos()),
                    us(child.duration().as_nanos()),
                ),
                &mut out,
            );
        }
        for marker in &tree.markers {
            event(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"marker\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\"pid\":{pid},\"tid\":{tid}}}",
                    marker.label,
                    us(marker.at.as_nanos()),
                ),
                &mut out,
            );
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Exports span trees as folded-stack flamegraph text: one
/// `prefix;phase;label nanos` line per unique stack, aggregated and
/// sorted, ready for `flamegraph.pl` or speedscope.
#[must_use]
pub fn to_folded(trees: &[SpanTree], prefix: &str) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for tree in trees {
        for child in &tree.children {
            let nanos = child.duration().as_nanos();
            if nanos == 0 {
                continue;
            }
            let stack = format!("{prefix};{};{}", child.phase.name(), child.label);
            *stacks.entry(stack).or_insert(0) += nanos;
        }
    }
    let mut out = String::new();
    for (stack, nanos) in stacks {
        let _ = writeln!(out, "{stack} {nanos}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::build_span;
    use agentrack_sim::{CorrId, NodeId, SimDuration, SimTime, TraceEvent, TraceRecord};

    fn sample_tree() -> SpanTree {
        let corr = CorrId::new(7, 1);
        let records = vec![
            TraceRecord {
                at: SimTime::from_nanos(0),
                event: TraceEvent::MessageSend {
                    kind: "Locate",
                    corr: Some(corr),
                    from: 7,
                    to: 3,
                    node: NodeId::new(0),
                },
            },
            TraceRecord {
                at: SimTime::from_nanos(1_500),
                event: TraceEvent::MessageRecv {
                    kind: "Locate",
                    corr: Some(corr),
                    by: 3,
                    node: NodeId::new(1),
                    queued: SimDuration::from_nanos(500),
                },
            },
        ];
        build_span(&records, corr).expect("records exist")
    }

    #[test]
    fn perfetto_output_is_valid_shape_and_stable() {
        let tree = sample_tree();
        let json = to_perfetto_json(std::slice::from_ref(&tree));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"locate 7#1\""));
        assert!(json.contains("\"name\":\"transport:Locate\""));
        assert!(json.contains("\"name\":\"queue:Locate\""));
        assert_eq!(json, to_perfetto_json(&[tree]), "must be deterministic");
    }

    #[test]
    fn folded_output_aggregates_and_sorts() {
        let tree = sample_tree();
        let folded = to_folded(&[tree.clone(), tree], "forwarding");
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        // BTreeMap ordering: queue_wait sorts before tracker_query.
        assert_eq!(lines[0], "forwarding;queue_wait;queue:Locate 1000");
        assert_eq!(lines[1], "forwarding;tracker_query;transport:Locate 2000");
    }
}
