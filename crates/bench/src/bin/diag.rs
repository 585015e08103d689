//! Tail-latency analysis helper (not part of the recorded experiments).
//!
//! Runs the heaviest Experiment-I point, finds the slowest locate, and
//! replays the (deterministic) run tracing every protocol message that
//! concerns the slow target.

use std::sync::{Arc, Mutex};

use agentrack_core::{HashedScheme, LocationConfig, TrackerView, Wire};
use agentrack_platform::AgentId;
use agentrack_workload::{RunOptions, Scenario};

fn scenario() -> Scenario {
    let mut s = Scenario::new("diag")
        .with_agents(1000)
        .with_residence_ms(500)
        .with_queries(2000)
        .with_seconds(35.0, 15.0);
    s.grace = agentrack_sim::SimDuration::from_secs(45);
    s
}

fn config() -> LocationConfig {
    LocationConfig {
        max_locate_attempts: 30,
        locate_retry_timeout: agentrack_sim::SimDuration::from_secs(2),
        ..LocationConfig::default()
    }
}

fn main() {
    let sc = scenario();
    let mut scheme = HashedScheme::new(config());
    let out = sc.run_with(&mut scheme, RunOptions::new());
    let (report, samples) = (out.report, out.samples);
    println!(
        "mean={:.2}ms p50={:.2} p95={:.2} max={:.2} done={} fail={}",
        report.mean_locate_ms,
        report.p50_locate_ms,
        report.p95_locate_ms,
        report.max_locate_ms,
        report.locates_completed,
        report.locate_failures
    );
    // The per-tracker view (who was saturated, whose mailbox filled), also
    // as JSON, for offline analysis.
    let snapshot = agentrack_core::LocationScheme::shared(&scheme).tracker_rows();
    print!("{}", snapshot.to_csv());
    if std::env::args().any(|a| a == "--registry-json") {
        print!("{}", snapshot.to_json());
    }
    let slow: Vec<_> = samples
        .iter()
        .filter(|(_, _, e)| e.as_millis_f64() > 500.0)
        .collect();
    println!("slow(>500ms) queries: {}", slow.len());
    let Some(&&(when, target, elapsed)) = slow.iter().max_by_key(|(_, _, e)| *e) else {
        return;
    };
    println!(
        "tracing worst: target={target} issued={:.2}s elapsed={:.1}ms",
        when.as_secs_f64(),
        elapsed.as_millis_f64()
    );

    // Deterministic replay with a tracer on the same seed.
    let log: Arc<Mutex<Vec<String>>> = Arc::default();
    let log2 = log.clone();
    let window_lo = 0.0;
    let window_hi = when.as_secs_f64() + elapsed.as_millis_f64() / 1000.0 + 0.5;
    let tracer = Box::new(move |ev: agentrack_platform::MsgTrace<'_>| {
        let t = ev.now.as_secs_f64();
        if t < window_lo || t > window_hi {
            return;
        }
        let Some(wire) = Wire::from_payload(ev.payload) else {
            return;
        };
        // Hash-function distribution events: log version and where the
        // target's key maps under that copy. Only the copies that reach
        // trackers matter for the desync; skip the LHAgent fan-out noise.
        let copy = match &wire {
            Wire::InstallHashFn { hf } => Some(("Install", hf.version, hf.resolve(target).0)),
            Wire::InstallView { image } => {
                let view = TrackerView::from_image(image.clone());
                Some(("Install", view.version(), view.resolve(target).0))
            }
            Wire::HashFnCopy { hf } if ev.to.raw() == 0 => {
                Some(("HfCopy", hf.version, hf.resolve(target).0))
            }
            Wire::HashFnCopy { .. } => return,
            _ => None,
        };
        if let Some((kind, version, owner)) = copy {
            log2.lock().unwrap().push(format!(
                "t={t:>9.4}s {} -> {} @{} {} {kind}(v{version}, key->{owner})",
                ev.from,
                ev.to,
                ev.node,
                if ev.delivered { "ok " } else { "BOUNCE" },
            ));
            return;
        }
        match &wire {
            Wire::SplitRequest { .. } | Wire::MergeRequest { .. } | Wire::IAgentReady { .. } => {
                log2.lock().unwrap().push(format!(
                    "t={t:>9.4}s {} -> {} @{} {} {:?}",
                    ev.from,
                    ev.to,
                    ev.node,
                    if ev.delivered { "ok " } else { "BOUNCE" },
                    wire,
                ));
                return;
            }
            _ => {}
        }
        let about: Option<AgentId> = match &wire {
            Wire::Register { agent, .. } | Wire::Update { agent, .. } => Some(*agent),
            Wire::Locate { target, .. }
            | Wire::Located { target, .. }
            | Wire::NotFound { target, .. }
            | Wire::Resolve { target, .. }
            | Wire::ResolveFresh { target, .. }
            | Wire::Resolved { target, .. } => Some(*target),
            Wire::NotResponsible { about, .. } => Some(*about),
            Wire::Handoff { records } => records.iter().map(|(a, _)| *a).find(|a| *a == target),
            _ => None,
        };
        if about == Some(target) {
            let kind = match &wire {
                Wire::Handoff { .. } => "Handoff(containing target)".to_owned(),
                other => format!("{other:?}").chars().take(70).collect(),
            };
            log2.lock().unwrap().push(format!(
                "t={t:>9.4}s {} -> {} @{} {} {}",
                ev.from,
                ev.to,
                ev.node,
                if ev.delivered { "ok " } else { "BOUNCE" },
                kind
            ));
        }
    });
    let sc = scenario();
    let _ = sc.run_with(
        &mut HashedScheme::new(config()),
        RunOptions::new().with_tracer(tracer),
    );
    let log = log.lock().unwrap();
    println!("trace lines: {}", log.len());
    for line in log.iter() {
        println!("{line}");
    }
}
