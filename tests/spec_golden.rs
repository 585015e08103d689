//! Golden-file tests for every committed spec that the CI smoke jobs
//! run at quick fidelity.
//!
//! Each committed CSV under `tests/golden/` is the quick-fidelity table
//! of one spec in `specs/`. The simulation is deterministic and none of
//! these tables report wall-clock fields (the only non-deterministic
//! trial field, `wall_ms`, lives in the trials JSON and is bounded
//! separately below), so the comparison is exact. A diff here means the
//! spec, the runner, or the protocol changed behaviour — regenerate
//! with `scenario_lab --quick` only after deciding the change is
//! intended.
//!
//! Every experiment (E1–E10, E12–E15, E17) is a spec. Those that began
//! as hand-coded functions have goldens recorded from those functions'
//! quick-fidelity tables, before the deletion. `baselines`
//! (E7) has since taken the wide layout, and `trackers` (E12) one trial
//! row, with the same numbers. `trackers` and `attribution` (E14) run
//! without the audit, whose probe locates would land in their exports,
//! and pin those exports too: the registry JSON, and the Perfetto and
//! folded-stack files.

use agentrack_bench::{run_spec, Fidelity, ScenarioSpec, SpecOutcome, TrialRecord};

fn read_golden(file: &str) -> String {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn assert_golden(actual: &str, file: &str) {
    assert_eq!(
        actual,
        read_golden(file),
        "quick-fidelity output diverged from tests/golden/{file}"
    );
}

fn load_spec(name: &str) -> ScenarioSpec {
    let path = format!("{}/specs/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    ScenarioSpec::load_str(&text).unwrap_or_else(|e| panic!("loading {path}: {e}"))
}

fn check_golden(name: &str) {
    let spec = load_spec(name);
    let outcome = run_spec(&spec, Fidelity::Quick, 1);
    assert_golden(&outcome.table.to_csv(), &format!("{name}.quick.csv"));

    // Every spec run carries the post-quiesce invariant audit; golden
    // workloads must stay audit-green trial by trial.
    for trial in &outcome.trials {
        let audit = trial
            .invariants
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: trial {} ran without an audit", trial.scenario));
        assert!(
            audit.violations.is_empty(),
            "{name}: trial {} has violations: {:?}",
            trial.scenario,
            audit.violations
        );
        // Wall-clock is the one non-deterministic field: bound it
        // instead of comparing it (quick trials run in well under a
        // minute even on a loaded host).
        assert!(
            trial.wall_ms > 0.0 && trial.wall_ms < 60_000.0,
            "{name}: implausible wall_ms {} for trial {}",
            trial.wall_ms,
            trial.scenario
        );
    }
}

#[test]
fn golden_exp1() {
    check_golden("exp1");
}

#[test]
fn golden_exp2() {
    check_golden("exp2");
}

#[test]
fn golden_ablation_split() {
    check_golden("ablation-split");
}

#[test]
fn golden_ablation_propagation() {
    check_golden("ablation-propagation");
}

#[test]
fn golden_sweep_thresholds() {
    check_golden("sweep-thresholds");
}

#[test]
fn golden_ablation_planning() {
    check_golden("ablation-planning");
}

#[test]
fn golden_chaos() {
    check_golden("chaos");
}

#[test]
fn golden_rehash_spike() {
    check_golden("rehash-spike");
}

#[test]
fn golden_diurnal() {
    check_golden("diurnal");
}

#[test]
fn golden_flash_crowd() {
    check_golden("flash_crowd");
}

#[test]
fn golden_regional_partition() {
    check_golden("regional_partition");
}

#[test]
fn golden_hot_key_churn() {
    check_golden("hot_key_churn");
}

#[test]
fn golden_skew() {
    check_golden("skew");
}

#[test]
fn golden_churn() {
    check_golden("churn");
}

#[test]
fn golden_locality() {
    check_golden("locality");
}

#[test]
fn golden_recovery() {
    check_golden("recovery");
}

#[test]
fn golden_baselines() {
    check_golden("baselines");
}

/// The export written as `file`.
fn export<'a>(outcome: &'a SpecOutcome, file: &str) -> &'a str {
    let found = outcome.exports.iter().find(|(name, _)| name == file);
    &found.unwrap_or_else(|| panic!("no export {file}")).1
}

#[test]
fn golden_trackers() {
    let outcome = run_spec(&load_spec("trackers"), Fidelity::Quick, 1);
    assert_golden(&outcome.table.to_csv(), "trackers.quick.csv");
    assert_golden(export(&outcome, "trackers.json"), "trackers.quick.json");
}

#[test]
fn golden_attribution() {
    let outcome = run_spec(&load_spec("attribution"), Fidelity::Quick, 1);
    assert_golden(&outcome.table.to_csv(), "attribution.quick.csv");
    assert_golden(
        export(&outcome, "attribution.perfetto.json"),
        "attribution.quick.perfetto.json",
    );
    assert_golden(
        export(&outcome, "attribution.folded"),
        "attribution.quick.folded",
    );
}

#[test]
fn spec_runner_is_deterministic_across_job_counts() {
    let all_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    // Two spec-only workloads, a wide table over two arms (exp2), spikes
    // read back from a trace (rehash-spike), one axis driving two
    // parameters (skew), crash faults with trace-derived recovery
    // columns (recovery), and phase columns with trace exports
    // (attribution).
    for name in [
        "diurnal",
        "hot_key_churn",
        "exp2",
        "rehash-spike",
        "skew",
        "recovery",
        "attribution",
    ] {
        let spec = load_spec(name);
        let sequential = run_spec(&spec, Fidelity::Quick, 1);
        let parallel = run_spec(&spec, Fidelity::Quick, all_cores);
        assert_eq!(
            sequential.table.to_csv(),
            parallel.table.to_csv(),
            "{name}: table differs between jobs=1 and jobs=all"
        );
        // Trial records must agree too, modulo the one wall-clock field.
        let strip = |trials: &[TrialRecord]| {
            let mut trials = trials.to_vec();
            for t in &mut trials {
                t.wall_ms = 0.0;
            }
            serde_json::to_string(&trials).unwrap()
        };
        assert_eq!(
            strip(&sequential.trials),
            strip(&parallel.trials),
            "{name}: trials differ between jobs=1 and jobs=all"
        );
        assert_eq!(
            sequential.exports, parallel.exports,
            "{name}: exports differ between jobs=1 and jobs=all"
        );
    }
}
