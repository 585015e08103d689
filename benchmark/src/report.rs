//! The benchmark's vocabulary: which workloads exist, which metrics each
//! run reports, in what unit, which direction is better and how far an
//! end-to-end metric may slip. `BENCHMARK.json` is generated from these
//! tables (`benchmark manifest`), and a test keeps the two identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use agentrack_trace_analysis::Phase;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "live_locate_steady",
        why: "100k still agents (a working set far beyond the CPU caches), frozen tree, reads only: per-message cost (wire codec, channel hop, LHAgent, IAgent) does all the work, rehash none",
    },
    Workload {
        name: "live_move_mix",
        why: "20k agents that all hop every second while being located: migration, registry generations and the Update path work here only, so a read gain that taxes moves shows",
    },
    Workload {
        name: "live_rehash_churn",
        why: "a split threshold the closed-loop load keeps crossing, never frozen: HAgent, plan_split, InstallHashFn codec, handoffs and NotResponsible detours do most of the work",
    },
    Workload {
        name: "sim_scale",
        why: "deterministic simulator, paper cost model, 2500 agents growing a 230-IAgent tree: sim kernel and protocol handlers work, the live platform does none",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub const fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the mechanism sees. Every workload reports every one;
/// on `sim_scale` the operation is a *simulated* locate, counted and paid
/// for on the wall clock but lasting `locate_mean_us` on the simulated one
/// (see README, "sim_scale in end-to-end terms").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "locate_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "locate_mean_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_locate",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

/// Single-layer metrics of the traced run, grouped by the crate or module
/// they price. One that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Layer; 72] = [
    layer("hashtree.lookup_ns", "ns", Lower),
    layer("hashtree.split_refresh_us", "us", Lower),
    layer("core.wire_locate_encode_ns", "ns", Lower),
    layer("core.wire_locate_decode_ns", "ns", Lower),
    layer("core.wire_locate_bytes", "bytes", Lower),
    layer("core.wire_install_encode_us", "us", Lower),
    layer("core.wire_install_decode_us", "us", Lower),
    layer("core.wire_install_bytes", "bytes", Lower),
    layer("core.key_of_ns", "ns", Lower),
    layer("core.resolve_ns", "ns", Lower),
    layer("core.lhagent_resolve_ns", "ns", Lower),
    layer("core.iagent_locate_ns", "ns", Lower),
    layer("core.iagent_update_ns", "ns", Lower),
    layer("core.plan_split_us", "us", Lower),
    layer("core.msgs_per_locate", "count", Lower),
    layer("core.stale_hit_share", "ratio", Lower),
    layer("core.stale_answer_share", "ratio", Lower),
    layer("core.splits", "count", Lower),
    layer("core.merges", "count", Lower),
    layer("core.rehash_denied", "count", Lower),
    layer("core.handoff_records", "count", Lower),
    layer("core.hf_fetches", "count", Lower),
    layer("core.trackers_end", "count", Lower),
    layer("core.msgs_install", "count", Lower),
    layer("core.bytes_install", "bytes", Lower),
    layer("core.msgs_handoff", "count", Lower),
    layer("core.central_locate_per_s", "1/s", Higher),
    layer("platform.local_hop_ns", "ns", Lower),
    layer("platform.cross_hop_us", "us", Lower),
    layer("platform.post_per_s", "1/s", Higher),
    layer("platform.registry_locate_ns", "ns", Lower),
    layer("platform.migrate_p50_us", "us", Lower),
    layer("platform.spawn_per_s", "1/s", Higher),
    layer("platform.deliver_p50_us", "us", Lower),
    layer("platform.deliver_p99_us", "us", Lower),
    layer("platform.move_p50_us", "us", Lower),
    layer("platform.timer_lag_p50_us", "us", Lower),
    layer("platform.queue_depth_max", "count", Lower),
    layer("platform.route_cache_hit_share", "ratio", Higher),
    layer("platform.msgs_failed", "count", Lower),
    layer("sim.event_ns", "ns", Lower),
    layer("sim.hist_record_ns", "ns", Lower),
    layer("sim.msgs_sent", "count", Lower),
    layer("sim.msgs_per_s", "1/s", Higher),
    layer("sim.locate_wall_p50_us", "us", Lower),
    layer("sim.locate_wall_p90_us", "us", Lower),
    layer("workload.sim_wall_s", "s", Lower),
    layer("workload.sim_splits", "count", Lower),
    layer("workload.sim_trackers", "count", Lower),
    layer("workload.sim_locate_ms", "ms", Lower),
    layer("trace.build_spans_ms", "ms", Lower),
    layer("trace.phase_resolution_share", "ratio", Lower),
    layer("trace.phase_tracker_query_share", "ratio", Lower),
    layer("trace.phase_chain_traversal_share", "ratio", Lower),
    layer("trace.phase_answer_share", "ratio", Lower),
    layer("trace.phase_stale_detour_share", "ratio", Lower),
    layer("trace.phase_queue_wait_share", "ratio", Lower),
    layer("trace.phase_retry_backoff_share", "ratio", Lower),
    layer("trace.phase_other_share", "ratio", Lower),
    layer("client.resolve_leg_p50_us", "us", Lower),
    layer("client.query_leg_p50_us", "us", Lower),
    layer("client.retry_share", "ratio", Lower),
    layer("client.locate_p50_us", "us", Lower),
    layer("client.locate_p90_us", "us", Lower),
    layer("client.locate_p99_us", "us", Lower),
    layer("client.locate_p999_us", "us", Lower),
    layer("client.move_per_s", "1/s", Higher),
    layer("client.fail_share", "ratio", Lower),
    layer("harness.calib_ns", "ns", Lower),
    layer("harness.trace_overhead_share", "ratio", Lower),
    layer("harness.subwindow_spread", "ratio", Lower),
    layer("harness.ledger_unattributed_share", "ratio", Lower),
];

/// The per-layer name of a trace-analysis phase's share.
pub fn phase_metric(phase: Phase) -> String {
    format!("trace.phase_{}_share", phase.name())
}

/// The table's own spelling of a workload name, if it has one.
pub fn workload_named(name: &str) -> Option<&'static str> {
    WORKLOADS.iter().map(|w| w.name).find(|n| *n == name)
}

/// The unit a declared metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
}

/// Named measurements of one run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the tables above do not list `name`: a metric nobody
    /// declared is a typo, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.0.insert(name.to_owned(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Everything one benchmark run reports.
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The names this run must report, in table order.
    pub fn names(&self) -> Vec<&'static str> {
        if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// The value of `name`; a per-layer metric the workload does not have
    /// reads 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing: every workload owes
    /// every one.
    pub fn value(&self, name: &str) -> f64 {
        match self.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(_) => 0.0,
            None if self.traced => 0.0,
            None => panic!("{} did not report {name}", self.workload),
        }
    }

    /// Reads back a line [`json_line`](Self::json_line) wrote, as printed
    /// by a child process. Not a JSON parser: it knows this one layout.
    pub fn from_json_line(workload: &'static str, traced: bool, line: &str) -> Option<RunResult> {
        let after = |key: &str| line.split_once(key).map(|(_, rest)| rest);
        let number = |rest: &str| -> Option<f64> {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        };
        let correct = after("\"correct\": ")?.starts_with("true");
        let mut result = RunResult {
            workload,
            traced,
            attempted: number(after("\"attempted\": ")?)? as u64,
            failed: number(after("\"failed\": ")?)? as u64,
            violations: Vec::new(),
            metrics: Metrics::default(),
        };
        for name in result.names() {
            let value = number(after(&format!("\"{name}\": {{\"value\": "))?)?;
            result.metrics.set(name, value);
        }
        if !correct && result.failed == 0 {
            result
                .violations
                .push("an invariant broke (see standard error)".into());
        }
        Some(result)
    }

    /// The contract's result line: one JSON object.
    pub fn json_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in self.names().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let unit = unit_of(name).expect("table name");
            let value = self.value(name);
            write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to string");
        }
        line.push_str("}}");
        line
    }
}

/// `BENCHMARK.json`, generated from the tables.
pub fn manifest(run_seconds: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {run_seconds},").expect("write to string");
    let rows = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
        writeln!(out, "  \"{key}\": [").expect("write to string");
        writeln!(out, "    {}", rows.join(",\n    ")).expect("write to string");
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    };
    rows(
        &mut out,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
        false,
    );
    rows(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.word(),
                    m.bound
                )
            })
            .collect(),
        false,
    );
    rows(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.word()
                )
            })
            .collect(),
        true,
    );
    out.push_str("}\n");
    out
}

/// The window `BENCHMARK.json` asks the driver for.
pub const RUN_SECONDS: u32 = 15;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        // Not `assert_eq!`: on a mismatch it would print both 8 KiB files.
        assert!(
            include_str!("../../BENCHMARK.json") == manifest(RUN_SECONDS),
            "BENCHMARK.json is stale: regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_manifest_stays_inside_the_contract() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| name_ok(n)));
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains(['\n', '"'])));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128 && manifest(RUN_SECONDS).len() < 64 * 1024);
        for phase in Phase::ALL {
            assert!(unit_of(&phase_metric(phase)).is_some(), "{phase} has a row");
        }
    }

    fn result(traced: bool, metrics: Metrics) -> RunResult {
        RunResult {
            workload: "live_locate_steady",
            traced,
            attempted: 10,
            failed: 0,
            violations: Vec::new(),
            metrics,
        }
    }

    #[test]
    fn the_result_line_carries_every_metric_exactly_once() {
        let mut metrics = Metrics::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            metrics.set(m.name, 1.5 + i as f64);
        }
        let line = result(false, metrics).json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        for m in &END_TO_END {
            let key = format!("\"{}\": {{\"value\": ", m.name);
            assert_eq!(line.matches(&key).count(), 1, "{} once", m.name);
        }
        assert!(line.contains("\"setup_s\": {\"value\": 5.5, \"unit\": \"s\"}"));
        assert!(!line.contains("hashtree."), "no per-layer rows untraced");

        // A traced run reports every per-layer metric, absent ones as 0,
        // and no end-to-end row.
        let mut metrics = Metrics::default();
        metrics.set("core.splits", 7.0);
        metrics.set("core.stale_hit_share", f64::NAN);
        let line = result(true, metrics).json_line();
        for m in &PER_LAYER {
            let key = format!("\"{}\": {{\"value\": ", m.name);
            assert_eq!(line.matches(&key).count(), 1, "{} once", m.name);
        }
        assert!(line.contains("\"core.splits\": {\"value\": 7, \"unit\": \"count\"}"));
        assert!(line.contains("\"core.stale_hit_share\": {\"value\": 0, "));
        assert!(!line.contains("\"setup_s\""));
    }

    #[test]
    fn a_result_line_reads_back_as_written() {
        let mut metrics = Metrics::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            metrics.set(m.name, 0.125 + 1e6 * i as f64);
        }
        let mut written = result(false, metrics);
        written.attempted = 123_456;
        written.failed = 7;
        let read = RunResult::from_json_line(written.workload, false, &written.json_line())
            .expect("own format");
        assert_eq!((read.attempted, read.failed), (123_456, 7));
        assert!(!read.correct());
        for m in &END_TO_END {
            assert_eq!(read.value(m.name), written.value(m.name), "{}", m.name);
        }
        // A violation without a failed locate survives the round trip.
        written.failed = 0;
        written.violations.push("books".into());
        let read = RunResult::from_json_line(written.workload, false, &written.json_line())
            .expect("own format");
        assert!(read.failed == 0 && !read.correct());
        assert!(RunResult::from_json_line("sim_scale", false, "error: it broke").is_none());
    }

    #[test]
    fn a_failed_locate_or_a_violation_makes_the_run_incorrect() {
        let mut r = result(true, Metrics::default());
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.violations.push("books do not balance".into());
        assert!(!r.correct() && r.json_line().starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn a_misspelt_metric_is_refused() {
        Metrics::default().set("core.spilts", 1.0);
    }
}
