//! # agentrack-bench
//!
//! The experiment harness: the paper's evaluation (E1, E2) and the
//! extension experiments. Every experiment is a trial grid the
//! declarative [`ScenarioSpec`] expresses: it lives only as
//! `specs/<name>.json`, and runs through [`run_spec`], which also renders
//! the spec's exports. The `scenario_lab` binary runs specs by name
//! ([`spec_path`]) or by path, and prints the tables recorded in
//! `EXPERIMENTS.md`.
//!
//! Every experiment takes a [`Fidelity`]: [`Fidelity::Full`] reproduces the
//! paper's parameters (reconstructed where the source text lost digits —
//! see `DESIGN.md`), [`Fidelity::Quick`] shrinks populations and spans so
//! integration tests and smoke runs finish in seconds.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use agentrack_core::{
    CentralizedScheme, ForwardingScheme, HashedScheme, HomeRegistryScheme, LocationConfig,
    LocationScheme,
};

pub mod spec;

mod runner;
pub use runner::{run_spec, PhaseMeans, PointValue, SpecOutcome, TrialRecord};
pub use spec::{ScenarioSpec, SpecError};

/// The committed specs directory: `specs/` under the working directory,
/// or `../../specs` from a crate directory.
#[must_use]
pub fn specs_dir() -> PathBuf {
    let dir = PathBuf::from("specs");
    if dir.is_dir() {
        dir
    } else {
        PathBuf::from("../../specs")
    }
}

/// The spec names in `dir`: the stems of its `*.json` files, sorted.
#[must_use]
pub fn spec_names(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| {
            let file = e.ok()?.file_name().into_string().ok()?;
            file.strip_suffix(".json").map(str::to_owned)
        })
        .collect();
    names.sort();
    names
}

/// Where a spec argument points: a bare name (no `/`, no `.json`) is
/// `<dir>/<name>.json`; anything else is a path, taken as given.
///
/// # Errors
///
/// A bare name with no spec in `dir`; the message lists the names there.
pub fn spec_path(arg: &str, dir: &Path) -> Result<PathBuf, String> {
    if arg.contains('/') || arg.ends_with(".json") {
        return Ok(PathBuf::from(arg));
    }
    let path = dir.join(format!("{arg}.json"));
    if path.is_file() {
        return Ok(path);
    }
    Err(format!(
        "unknown spec {arg:?}: no {}; known specs: {}",
        path.display(),
        spec_names(dir).join(", ")
    ))
}

/// How much of the paper's scale to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// The reconstructed paper parameters.
    Full,
    /// Shrunk populations and spans for smoke tests.
    Quick,
}

impl Fidelity {
    fn scale_agents(self, n: usize) -> usize {
        match self {
            Fidelity::Full => n,
            Fidelity::Quick => (n / 10).max(10),
        }
    }

    fn queries(self) -> u64 {
        match self {
            Fidelity::Full => 2000,
            Fidelity::Quick => 200,
        }
    }

    fn spans(self) -> (f64, f64) {
        match self {
            // The split cascade at the largest population needs ~25 s to
            // converge (the HAgent serialises rehashes); measure after it.
            Fidelity::Full => (35.0, 15.0),
            Fidelity::Quick => (10.0, 5.0),
        }
    }
}

/// A printable result table with a machine-readable CSV form.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (the experiment id and description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the table as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Builds one scheme instance; the flag asks for a standby HAgent, which
/// only the hashed scheme has (spec validation rejects it elsewhere).
type MakeScheme = fn(LocationConfig, bool) -> Box<dyn LocationScheme>;

/// Every scheme kind the harness can instantiate, by the name specs use.
/// Spec validation reads the names from here.
pub(crate) const SCHEMES: &[(&str, MakeScheme)] = &[
    ("hashed", |config, standby| {
        let scheme = HashedScheme::new(config);
        Box::new(if standby {
            scheme.with_standby()
        } else {
            scheme
        })
    }),
    ("centralized", |config, _| {
        Box::new(CentralizedScheme::new(config))
    }),
    ("home-registry", |config, _| {
        Box::new(HomeRegistryScheme::new(config))
    }),
    ("forwarding", |config, _| {
        Box::new(ForwardingScheme::new(config))
    }),
];

/// Builds a fresh boxed scheme instance of the named kind.
///
/// # Panics
///
/// Panics on a kind [`SCHEMES`] does not list.
pub(crate) fn boxed_scheme(
    kind: &str,
    config: LocationConfig,
    standby: bool,
) -> Box<dyn LocationScheme> {
    let (_, make) = SCHEMES
        .iter()
        .find(|&&(name, _)| name == kind)
        .unwrap_or_else(|| panic!("unknown scheme {kind}"));
    make(config, standby)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_and_csvs() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let rendered = t.render();
        assert!(rendered.contains("== demo =="));
        assert!(rendered.contains("a  bb"));
        assert_eq!(t.to_csv(), "a,bb\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_is_checked() {
        let mut t = Table::new("demo", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    fn committed_specs() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs")
    }

    fn load(path: &Path) -> ScenarioSpec {
        let source =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        ScenarioSpec::load_str(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn every_spec_is_named_for_its_file() {
        let dir = committed_specs();
        let names = spec_names(&dir);
        assert!(names.contains(&"exp1".to_owned()), "{names:?}");
        for name in &names {
            assert_eq!(load(&dir.join(format!("{name}.json"))).name, *name);
        }
    }

    #[test]
    fn a_name_and_its_path_load_the_same_spec() {
        let dir = committed_specs();
        for name in spec_names(&dir) {
            let path = dir.join(format!("{name}.json"));
            let given = path.to_str().expect("utf-8 path");
            assert_eq!(spec_path(given, &dir), Ok(path.clone()), "{name}");
            let by_name = spec_path(&name, &dir).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(load(&by_name), load(&path), "{name}");
        }
    }

    #[test]
    fn an_unknown_name_lists_the_known_specs() {
        let dir = committed_specs();
        let err = spec_path("exp9", &dir).expect_err("no such spec");
        assert!(err.contains("\"exp9\""), "{err}");
        for name in spec_names(&dir) {
            assert!(err.contains(&name), "{name} missing from: {err}");
        }
        assert_eq!(
            spec_path("exp9.json", &dir),
            Ok(PathBuf::from("exp9.json")),
            "a path is taken as given, and fails when read"
        );
    }
}
