//! # agentrack-bench
//!
//! The experiment harness: the paper's evaluation (E1, E2) and the
//! extension experiments. Every `repro` name is a trial grid the
//! declarative [`ScenarioSpec`] expresses: it lives only as
//! `specs/<name>.json`, embedded at build time ([`experiments`]), and runs
//! through [`run_spec`], which also renders the spec's exports. The
//! `repro` binary runs them by name and prints the tables recorded in
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

use agentrack_core::{
    CentralizedScheme, ForwardingScheme, HashedScheme, HomeRegistryScheme, LocationConfig,
    LocationScheme,
};

pub mod spec;

mod runner;
pub use runner::{run_spec, PhaseMeans, PointValue, SpecOutcome, TrialRecord};
pub use spec::{ScenarioSpec, SpecError};

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

/// The experiments, one `specs/<name>.json` each, embedded so `repro`
/// works from any directory. A spec's `name` is its file stem and its
/// `repro` name; this order is the order of `repro all`.
const SPECS: &[&str] = &[
    include_str!("../../../specs/exp1.json"),
    include_str!("../../../specs/exp2.json"),
    include_str!("../../../specs/ablation-split.json"),
    include_str!("../../../specs/ablation-propagation.json"),
    include_str!("../../../specs/sweep-thresholds.json"),
    include_str!("../../../specs/skew.json"),
    include_str!("../../../specs/baselines.json"),
    include_str!("../../../specs/churn.json"),
    include_str!("../../../specs/locality.json"),
    include_str!("../../../specs/ablation-planning.json"),
    include_str!("../../../specs/trackers.json"),
    include_str!("../../../specs/chaos.json"),
    include_str!("../../../specs/attribution.json"),
    include_str!("../../../specs/recovery.json"),
    include_str!("../../../specs/rehash-spike.json"),
];

/// Every experiment `repro` runs, parsed from the embedded specs, in
/// `repro all` order.
///
/// # Panics
///
/// Panics if an embedded spec does not load (a unit test loads them
/// all).
#[must_use]
pub fn experiments() -> Vec<ScenarioSpec> {
    SPECS
        .iter()
        .map(|source| {
            ScenarioSpec::load_str(source).unwrap_or_else(|e| panic!("embedded spec: {e}"))
        })
        .collect()
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

    #[test]
    fn every_experiment_has_exactly_one_path() {
        let specs = experiments();
        for spec in &specs {
            let name = &spec.name;
            let twins = specs.iter().filter(|s| s.name == *name).count();
            assert_eq!(twins, 1, "{name}: {twins} embedded specs");
            let path = format!("{}/../../specs/{name}.json", env!("CARGO_MANIFEST_DIR"));
            let file = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(
                SPECS.contains(&file.as_str()),
                "{path} is not what repro embeds"
            );
        }
    }
}
