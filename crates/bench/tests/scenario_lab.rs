//! The `scenario_lab` command line: spec names resolve inside `specs/`,
//! and an unknown name fails with the list of known ones.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `scenario_lab` from the workspace root, where `specs/` is.
fn lab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario_lab"))
        .args(args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .output()
        .expect("scenario_lab starts")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scenario_lab-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A written file, with the values of the trial records' `wall_ms` (the
/// one field that differs run to run) cut out.
fn read_stable(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut parts = text.split("\"wall_ms\":");
    let mut stable = parts.next().unwrap_or_default().to_owned();
    for part in parts {
        stable
            .push_str(part.trim_start_matches(|c: char| c.is_ascii_digit() || ".eE+-".contains(c)));
    }
    stable
}

#[test]
fn a_name_and_its_path_write_identical_files() {
    let (by_name, by_path) = (scratch_dir("name"), scratch_dir("path"));
    for (spec, out) in [("exp1", &by_name), ("specs/exp1.json", &by_path)] {
        let run = lab(&["--quick", "--out", out.to_str().expect("utf-8"), spec]);
        assert!(run.status.success(), "{spec}: {run:?}");
    }
    let files = ["exp1.csv", "exp1.trials.json"];
    assert_eq!(
        std::fs::read_dir(&by_name).expect("written").count(),
        files.len()
    );
    for file in files {
        assert_eq!(
            read_stable(&by_name.join(file)),
            read_stable(&by_path.join(file)),
            "{file}"
        );
    }
    let _ = std::fs::remove_dir_all(by_name);
    let _ = std::fs::remove_dir_all(by_path);
}

#[test]
fn an_unknown_name_exits_1_and_lists_the_known_names() {
    let run = lab(&["--validate-only", "exp1", "exp9"]);
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("\"exp9\""), "{stderr}");
    assert!(
        stderr.contains("exp1") && stderr.contains("trackers"),
        "{stderr}"
    );
}

#[test]
fn help_lists_the_spec_names() {
    let run = lab(&["--help"]);
    assert!(run.status.success(), "{run:?}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    for name in ["exp1", "exp2", "rehash-spike", "flash_crowd"] {
        assert!(stdout.contains(name), "{name} missing from: {stdout}");
    }
}
