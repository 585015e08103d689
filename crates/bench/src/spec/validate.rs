//! Semantic validation of a parsed [`ScenarioSpec`]: what a field's type
//! cannot say — ranges, references between fields, and names that must
//! be in the scheme, axis or column tables.

use super::{Axis, AxisSpec, Home, Rule, ScenarioSpec, SpecError, AXES};
use crate::runner::column as column_format;
use crate::SCHEMES;

/// `Ok` when `ok` holds, else `message` at `path`.
fn ensure(ok: bool, path: impl Into<String>, message: impl Into<String>) -> Result<(), SpecError> {
    if ok {
        Ok(())
    } else {
        Err(SpecError::at(path, message))
    }
}

fn non_negative(v: f64) -> bool {
    v.is_finite() && v >= 0.0
}

/// In `[0, 1]` (so finite).
fn unit(v: f64) -> bool {
    (0.0..=1.0).contains(&v)
}

impl Axis {
    /// The axis named `name`, if there is one.
    fn named(name: &str) -> Option<&'static Axis> {
        AXES.iter().find(|axis| axis.name == name)
    }

    /// Why `v` is not a valid value of this axis, if it is not.
    fn value_error(&self, v: f64) -> Option<String> {
        let (name, whole) = (self.name, v.fract() == 0.0);
        match self.rule {
            _ if !v.is_finite() => Some("must be finite".to_owned()),
            Rule::Positive if !whole || v < 1.0 => {
                Some(format!("{name} values are positive whole numbers"))
            }
            Rule::NonNegative if !whole || v < 0.0 => {
                Some(format!("{name} values are whole non-negative milliseconds"))
            }
            Rule::Unit if !unit(v) => Some(format!("{name} lives in [0, 1]")),
            Rule::Zipf if v < 0.0 => Some("Zipf exponents are >= 0".to_owned()),
            _ => None,
        }
    }
}

impl Home {
    /// Where the fixed value lives, as error messages name it.
    fn label(self) -> &'static str {
        match self {
            Home::Workload(_) | Home::WorkloadOrSweep(_) => "workload",
            Home::Scheme(_) => "a scheme",
            Home::Chaos => "faults.chaos",
            Home::NodeCrash => "faults.node_crash",
        }
    }

    /// Whether `spec` fixes a value here.
    fn is_set(self, spec: &ScenarioSpec) -> bool {
        let faults = spec.faults.as_ref();
        match self {
            Home::Workload(set) | Home::WorkloadOrSweep(set) => set(&spec.workload),
            Home::Scheme(set) => spec.schemes.iter().any(set),
            Home::Chaos => faults.is_some_and(|f| f.chaos.is_some()),
            Home::NodeCrash => faults.is_some_and(|f| f.node_crash.is_some()),
        }
    }
}

impl ScenarioSpec {
    /// Every parameter some sweep axis drives.
    fn swept(&self) -> Vec<&str> {
        self.sweep
            .iter()
            .flatten()
            .flat_map(AxisSpec::params)
            .collect()
    }

    /// Semantic validation. Total: never panics, whatever the spec
    /// holds.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field by dotted
    /// path.
    pub fn validate(&self) -> Result<(), SpecError> {
        let name_ok = !self.name.is_empty()
            && self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
        ensure(
            name_ok,
            "name",
            "spec names are non-empty [a-zA-Z0-9_-]+ (they name output files)",
        )?;
        self.validate_workload()?;
        self.validate_sweep()?;
        self.validate_schemes()?;
        self.validate_faults()?;
        self.validate_spikes()?;
        let seeds_ok = self.seeds.as_ref().is_none_or(|seeds| !seeds.is_empty());
        ensure(seeds_ok, "seeds", "needs at least one seed")?;
        ensure(
            self.trace_buffer != Some(0),
            "trace_buffer",
            "must be positive",
        )?;
        self.validate_columns()
    }

    fn validate_workload(&self) -> Result<(), SpecError> {
        let w = &self.workload;
        let queries = w.queries.is_none_or(|q| q > 0);
        ensure(w.agents > 0, "workload.agents", "needs a population")?;
        ensure(
            w.residence_ms != Some(0),
            "workload.residence_ms",
            "must be positive",
        )?;
        ensure(
            w.nodes != Some(0),
            "workload.nodes",
            "needs at least one node",
        )?;
        ensure(
            w.queriers != Some(0) || !queries,
            "workload.queriers",
            "queries need queriers; set workload.queries to 0 for a query-free run",
        )?;
        ensure(
            w.warmup_s.is_some() == w.measure_s.is_some(),
            "workload.warmup_s",
            "set both warmup_s and measure_s, or neither (the fidelity supplies the pair)",
        )?;
        for (path, v) in [
            ("workload.warmup_s", w.warmup_s),
            ("workload.measure_s", w.measure_s),
            ("workload.grace_s", w.grace_s),
        ] {
            ensure(
                v.is_none_or(non_negative),
                path,
                "must be a finite non-negative number",
            )?;
        }
        ensure(
            w.measure_s != Some(0.0) || !queries,
            "workload.measure_s",
            "queries are paced over the measurement span; it cannot be zero",
        )?;
        for (path, v) in [
            ("workload.query_skew", w.query_skew),
            ("workload.mobility_skew", w.mobility_skew),
        ] {
            ensure(
                v.is_none_or(non_negative),
                path,
                "Zipf exponents are finite and >= 0",
            )?;
        }
        ensure(
            w.churn_lifespan_ms != Some(0),
            "workload.churn_lifespan_ms",
            "must be positive",
        )?;
        if let Some(dist) = w.churn_dist.as_deref() {
            ensure(
                matches!(dist, "constant" | "exponential"),
                "workload.churn_dist",
                format!("unknown lifespan distribution {dist:?} (constant or exponential)"),
            )?;
            ensure(
                w.churn_lifespan_ms.is_some() || self.swept().contains(&"churn_lifespan_ms"),
                "workload.churn_dist",
                "a lifespan distribution needs workload.churn_lifespan_ms or a \
                 churn_lifespan_ms sweep axis",
            )?;
        }
        for (path, v) in [
            ("workload.loss", w.loss),
            ("workload.duplication", w.duplication),
        ] {
            ensure(v.is_none_or(unit), path, "probabilities live in [0, 1]")?;
        }
        if let Some(regions) = w.regions {
            let nodes = w.nodes.unwrap_or(16);
            ensure(
                regions >= 2,
                "workload.regions",
                "a WAN model needs at least two regions (drop the field for a flat LAN)",
            )?;
            ensure(
                regions <= nodes,
                "workload.regions",
                format!("{regions} regions cannot be cut from {nodes} nodes"),
            )?;
        } else {
            ensure(
                w.inter_region_ms.is_none(),
                "workload.inter_region_ms",
                "inter-region latency needs workload.regions",
            )?;
        }
        ensure(
            w.inter_region_ms.is_none_or(|v| v.is_finite() && v > 0.0),
            "workload.inter_region_ms",
            "must be a positive number of milliseconds",
        )
    }

    fn validate_sweep(&self) -> Result<(), SpecError> {
        let mut seen: Vec<&str> = Vec::new();
        for (i, axis) in self.sweep.iter().flatten().enumerate() {
            let mut rows: Vec<&Axis> = Vec::new();
            for (k, param) in axis.params().enumerate() {
                let path = match k {
                    0 => format!("sweep[{i}].param"),
                    k => format!("sweep[{i}].also[{}]", k - 1),
                };
                let Some(row) = Axis::named(param) else {
                    let names: Vec<&str> = AXES.iter().map(|axis| axis.name).collect();
                    let names = names.join(", ");
                    let message =
                        format!("unknown sweep parameter {param:?} (expected one of {names})");
                    return Err(SpecError::at(path, message));
                };
                ensure(
                    !seen.contains(&param),
                    path.clone(),
                    "duplicate sweep parameter",
                )?;
                seen.push(param);
                let fixed = matches!(row.home, Home::WorkloadOrSweep(_)) && row.home.is_set(self);
                let message = format!("either fix workload.{param} or sweep it, not both");
                ensure(!fixed, path, message)?;
                rows.push(row);
            }
            let path = format!("sweep[{i}].values");
            ensure(!axis.values.is_empty(), path, "needs at least one value")?;
            for (j, &v) in axis.values.iter().enumerate() {
                if let Some(message) = rows.iter().find_map(|row| row.value_error(v)) {
                    return Err(SpecError::at(format!("sweep[{i}].values[{j}]"), message));
                }
            }
        }
        Ok(())
    }

    fn validate_schemes(&self) -> Result<(), SpecError> {
        ensure(
            !self.schemes.is_empty(),
            "schemes",
            "needs at least one scheme",
        )?;
        let labels = self.scheme_labels();
        for (i, scheme) in self.schemes.iter().enumerate() {
            let path = |field: &str| format!("schemes[{i}].{field}");
            let kinds: Vec<&str> = SCHEMES.iter().map(|&(kind, _)| kind).collect();
            let kinds = kinds.join(", ");
            ensure(
                SCHEMES.iter().any(|&(kind, _)| kind == scheme.kind),
                path("kind"),
                format!(
                    "unknown scheme kind {:?} (expected one of {kinds})",
                    scheme.kind
                ),
            )?;
            ensure(
                labels.iter().filter(|l| **l == labels[i]).count() == 1,
                path("label"),
                format!(
                    "label {:?} is not unique; give ablation arms distinct labels",
                    labels[i]
                ),
            )?;
            for (field, set) in [
                ("standby", scheme.standby == Some(true)),
                ("strict_versions", scheme.strict_versions == Some(true)),
                ("rehash_concurrency", scheme.rehash_concurrency.is_some()),
                ("eager_propagation", scheme.eager_propagation == Some(true)),
                (
                    "simple_splits_only",
                    scheme.simple_splits_only == Some(true),
                ),
                ("blind_splits", scheme.blind_splits == Some(true)),
                (
                    "locality_migration",
                    scheme.locality_migration == Some(true),
                ),
                ("threshold_max", scheme.threshold_max.is_some()),
            ] {
                ensure(
                    !set || scheme.kind == "hashed",
                    path(field),
                    format!("only the hashed scheme understands {field}"),
                )?;
            }
            ensure(
                scheme
                    .version_audit_s
                    .is_none_or(|v| v.is_finite() && v > 0.0),
                path("version_audit_s"),
                "must be a positive number of seconds",
            )?;
            ensure(
                scheme.replication_ms != Some(0),
                path("replication_ms"),
                "must be positive",
            )?;
            ensure(
                scheme.rehash_concurrency != Some(0),
                path("rehash_concurrency"),
                "must be at least 1 (the single-flight ablation)",
            )?;
            ensure(
                scheme.threshold_min.is_none() || scheme.threshold_max.is_some(),
                path("threshold_min"),
                "threshold_min needs threshold_max",
            )?;
            if let Some(t_max) = scheme.threshold_max {
                let t_min = scheme.threshold_min.unwrap_or(t_max / 10.0);
                ensure(
                    t_max.is_finite() && t_min.is_finite() && t_max > 0.0 && t_min < t_max,
                    path("threshold_max"),
                    "thresholds need 0 < threshold_min < threshold_max",
                )?;
            }
            ensure(
                scheme.strict_versions != Some(true) || scheme.version_audit_s.is_some(),
                path("strict_versions"),
                "strict version convergence is only sound with a version_audit_s interval \
                 (the paper's propagation is deliberately lazy)",
            )?;
        }
        Ok(())
    }

    fn validate_faults(&self) -> Result<(), SpecError> {
        let swept = self.swept();
        let swept_intensity = swept.contains(&"intensity");
        let swept_crash = swept.contains(&"crash_frac");
        let faults = self.faults.as_ref();
        let intensity = "faults.chaos.intensity";
        match faults.and_then(|f| f.chaos.as_ref()).map(|c| c.intensity) {
            None => ensure(
                !swept_intensity,
                "sweep",
                "an intensity axis needs faults.chaos to drive",
            )?,
            Some(Some(v)) => {
                ensure(unit(v), intensity, "intensity lives in [0, 1]")?;
                ensure(
                    !swept_intensity,
                    intensity,
                    "either fix the intensity here or sweep it, not both",
                )?;
            }
            Some(None) => ensure(
                swept_intensity,
                intensity,
                "set an intensity or add an intensity sweep axis",
            )?,
        }
        ensure(
            !swept_crash || faults.is_some_and(|f| f.node_crash.is_some()),
            "sweep",
            "a crash_frac axis needs faults.node_crash to drive",
        )?;
        let Some(faults) = faults else {
            return Ok(());
        };
        let arms = [
            faults.chaos.is_some(),
            faults.regional_partition.is_some(),
            faults.region_sever.is_some(),
            faults.node_crash.is_some(),
        ];
        ensure(
            arms.iter().filter(|&&set| set).count() == 1,
            "faults",
            "set exactly one of chaos, regional_partition, region_sever, or node_crash \
             (or drop the faults block)",
        )?;
        let nodes = self.workload.nodes.unwrap_or(16);
        if let Some(crash) = &faults.node_crash {
            ensure(
                swept_crash,
                "faults.node_crash",
                "the crash time comes from a crash_frac sweep axis; add one",
            )?;
            let path = "faults.node_crash.nodes";
            ensure(!crash.nodes.is_empty(), path, "needs at least one node")?;
            for (j, &node) in crash.nodes.iter().enumerate() {
                let outside = format!("node {node} is outside the {nodes}-node topology");
                ensure(node < nodes, format!("{path}[{j}]"), outside)?;
                let twice = format!("node {node} is listed twice");
                ensure(
                    !crash.nodes[..j].contains(&node),
                    format!("{path}[{j}]"),
                    twice,
                )?;
            }
            let path = "faults.node_crash.restart_ms";
            ensure(crash.restart_ms > 0, path, "must be positive")?;
        }
        if let Some(partition) = &faults.regional_partition {
            let path = |field: &str| format!("faults.regional_partition.{field}");
            for (field, v) in [
                ("at_frac", partition.at_frac),
                ("heal_frac", partition.heal_frac),
            ] {
                ensure(unit(v), path(field), "fractions of the run live in [0, 1]")?;
            }
            ensure(
                partition.heal_frac > partition.at_frac,
                path("heal_frac"),
                "the partition must heal after it starts",
            )?;
            if let Some(groups) = &partition.groups {
                let message = "a partition needs at least two groups";
                ensure(groups.len() >= 2, path("groups"), message)?;
                let mut seen = std::collections::HashSet::new();
                for (g, group) in groups.iter().enumerate() {
                    for &node in group {
                        let outside = format!("node {node} is outside the {nodes}-node topology");
                        ensure(node < nodes, path(&format!("groups[{g}]")), outside)?;
                        let twice = format!("node {node} appears in two groups");
                        ensure(seen.insert(node), path(&format!("groups[{g}]")), twice)?;
                    }
                }
            }
        }
        if let Some(sever) = &faults.region_sever {
            let path = |field: &str| format!("faults.region_sever.{field}");
            let Some(regions) = self.workload.regions else {
                return Err(SpecError::at(
                    "faults.region_sever",
                    "severing a WAN link needs workload.regions",
                ));
            };
            for (field, region) in [("a", sever.a), ("b", sever.b)] {
                let message = format!("region {region} is outside the {regions}-region topology");
                ensure(region < regions, path(field), message)?;
            }
            let message = "a region cannot sever from itself";
            ensure(sever.a != sever.b, path("b"), message)?;
            for (field, v) in [("at_frac", sever.at_frac), ("heal_frac", sever.heal_frac)] {
                ensure(unit(v), path(field), "fractions of the run live in [0, 1]")?;
            }
            let message = "the link must heal after it severs";
            ensure(sever.heal_frac > sever.at_frac, path("heal_frac"), message)?;
            let cycles = sever.cycles.unwrap_or(1);
            let message = "needs at least one sever/heal cycle";
            ensure(cycles > 0, path("cycles"), message)?;
            // Cycle i severs at at_frac + i * 2d and heals d later.
            let d = sever.heal_frac - sever.at_frac;
            let last_heal = sever.at_frac + (2.0 * f64::from(cycles) - 1.0) * d;
            ensure(
                last_heal <= 1.0,
                path("cycles"),
                format!("cycle {cycles} would heal at {last_heal:.2} of the run, past its end"),
            )?;
        }
        Ok(())
    }

    fn validate_spikes(&self) -> Result<(), SpecError> {
        for (i, spike) in self.spikes.iter().flatten().enumerate() {
            let path = |field: &str| format!("spikes[{i}].{field}");
            for (field, v) in [("at_frac", spike.at_frac), ("span_frac", spike.span_frac)] {
                let message = "spike timing fractions are finite and >= 0";
                ensure(non_negative(v), path(field), message)?;
            }
            let message = "a spike needs a non-zero span";
            ensure(spike.span_frac != 0.0, path("span_frac"), message)?;
            ensure(
                spike.queriers > 0,
                path("queriers"),
                "a spike needs queriers",
            )?;
            ensure(
                spike.queries_factor.is_some() != spike.queries.is_some(),
                path("queries"),
                "set exactly one of queries or queries_factor",
            )?;
            ensure(
                spike.queries_factor.or(spike.queries) != Some(0),
                path("queries"),
                "a spike needs a positive query budget",
            )?;
        }
        Ok(())
    }

    fn validate_columns(&self) -> Result<(), SpecError> {
        ensure(
            !self.columns.is_empty(),
            "columns",
            "needs at least one column",
        )?;
        let labels = self.scheme_labels();
        let have = labels.join(", ");
        let swept = self.swept();
        for (i, column) in self.columns.iter().enumerate() {
            let (path, scheme_path) = (
                format!("columns[{i}].field"),
                format!("columns[{i}].scheme"),
            );
            let field = column.field.as_str();
            ensure(
                column_format(field).is_some(),
                path.clone(),
                format!("unknown column field {field:?} (see EXPERIMENTS.md E18 for the catalog)"),
            )?;
            // A point column prints an axis knob, or the trial's identity.
            let axis = AXES.iter().find(|axis| axis.column == field);
            let point = axis.is_some() || matches!(field, "scheme" | "kind" | "seed");
            if let Some(scheme) = &column.scheme {
                let message = format!("no scheme labelled {scheme:?} (have {have})");
                ensure(labels.contains(scheme), scheme_path.clone(), message)?;
                ensure(
                    !self.scheme_rows(),
                    scheme_path,
                    "scheme_rows emits one row per scheme; scheme-scoped columns are for \
                     the wide layout",
                )?;
            } else {
                let n = labels.len();
                let message = format!("ambiguous: {n} schemes are in play; name one (have {have})");
                ensure(self.scheme_rows() || n <= 1 || point, scheme_path, message)?;
            }
            // A point column's knob must be fixed somewhere or swept.
            if let Some(axis) = axis {
                let (name, home) = (axis.name, axis.home.label());
                let message =
                    format!("a {field} column needs {name} set in {home} or a sweep axis");
                ensure(
                    axis.home.is_set(self) || swept.contains(&name),
                    path.clone(),
                    message,
                )?;
            }
            match field {
                "scheme" | "kind" => ensure(
                    self.scheme_rows(),
                    path,
                    format!("a {field} column only makes sense with scheme_rows"),
                )?,
                "reconverge_ms" => ensure(
                    self.spikes
                        .as_ref()
                        .is_some_and(|spikes| !spikes.is_empty()),
                    path,
                    "reconverge_ms measures rehash settling after a spike; add spikes",
                )?,
                "violations" => ensure(
                    self.audit(),
                    path,
                    "a violations column needs the invariant audit (drop audit: false)",
                )?,
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::tests::minimal;
    use crate::spec::AXES;
    use crate::ScenarioSpec;

    #[test]
    fn every_axis_prints_through_a_runner_column() {
        for axis in AXES {
            assert!(
                crate::runner::column(axis.column).is_some(),
                "{}",
                axis.name
            );
        }
    }

    #[test]
    fn bad_scheme_kind_is_named() {
        let source = minimal().replace("\"hashed\"", "\"hasjed\"");
        let err = ScenarioSpec::load_str(&source).expect_err("rejects");
        assert_eq!(err.path, "schemes[0].kind");
    }

    /// The error path `load_str` reports for `minimal()` with `extra`
    /// top-level entries spliced in.
    fn error_path(extra: &str) -> String {
        let source = minimal().replacen('{', &format!("{{ {extra},"), 1);
        ScenarioSpec::load_str(&source).expect_err("rejects").path
    }

    #[test]
    fn crash_node_outside_topology_is_named() {
        // The default topology has 16 nodes.
        let path = error_path(
            r#""sweep": [{"param": "crash_frac", "values": [0.5]}],
               "faults": {"node_crash": {"nodes": [1, 16], "restart_ms": 500}}"#,
        );
        assert_eq!(path, "faults.node_crash.nodes[1]");
    }

    #[test]
    fn crash_frac_axis_needs_node_crash() {
        let path = error_path(r#""sweep": [{"param": "crash_frac", "values": [0.5]}]"#);
        assert_eq!(path, "sweep");
    }

    #[test]
    fn node_crash_needs_crash_frac_axis() {
        let path = error_path(r#""faults": {"node_crash": {"nodes": [0], "restart_ms": 500}}"#);
        assert_eq!(path, "faults.node_crash");
    }

    #[test]
    fn churn_dist_needs_a_lifespan() {
        let source = minimal().replace(
            r#""agents": 100"#,
            r#""agents": 100, "churn_dist": "exponential""#,
        );
        let err = ScenarioSpec::load_str(&source).expect_err("rejects");
        assert_eq!(err.path, "workload.churn_dist");
        let swept = source.replacen(
            '{',
            r#"{ "sweep": [{"param": "churn_lifespan_ms", "values": [0, 5000]}],"#,
            1,
        );
        ScenarioSpec::load_str(&swept).expect("a lifespan axis satisfies churn_dist");
    }

    #[test]
    fn also_names_known_distinct_parameters() {
        let unknown = error_path(
            r#""sweep": [{"param": "mobility_skew", "also": ["warp"], "values": [1.0]}]"#,
        );
        assert_eq!(unknown, "sweep[0].also[0]");
        let duplicate = error_path(
            r#""sweep": [{"param": "mobility_skew", "also": ["query_skew", "mobility_skew"],
                          "values": [1.0]}]"#,
        );
        assert_eq!(duplicate, "sweep[0].also[1]");
    }

    #[test]
    fn negative_mobility_skew_is_rejected() {
        let path = error_path(r#""sweep": [{"param": "mobility_skew", "values": [0.5, -0.1]}]"#);
        assert_eq!(path, "sweep[0].values[1]");
    }

    #[test]
    fn node_crash_excludes_other_fault_arms() {
        let path = error_path(
            r#""faults": {"chaos": {"seed": 1, "intensity": 0.3},
                          "node_crash": {"nodes": [0], "restart_ms": 500}}"#,
        );
        assert_eq!(path, "faults");
    }
}
