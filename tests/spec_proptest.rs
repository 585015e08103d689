//! Property tests of the scenario-spec layer: generated valid specs
//! survive a serialize/parse round trip unchanged, and broken specs of
//! every stripe come back as spanned `SpecError`s naming the offending
//! field — never a panic.

use agentrack_bench::spec::{
    AxisSpec, ChaosFaults, ColumnSpec, FaultSpec, NodeCrashFaults, SchemeSpec, SpikeSpec,
    WorkloadSpec, ZipSpec,
};
use agentrack_bench::ScenarioSpec;
use proptest::prelude::*;

/// A scheme arm with every knob off; tests switch on what they need.
fn plain_scheme(kind: &str) -> SchemeSpec {
    SchemeSpec {
        kind: kind.to_string(),
        label: None,
        patient: None,
        standby: None,
        strict_versions: None,
        version_audit_s: None,
        replication_ms: None,
        rehash_concurrency: None,
        eager_propagation: None,
        simple_splits_only: None,
        blind_splits: None,
        locality_migration: None,
        threshold_max: None,
        threshold_min: None,
    }
}

fn plain_workload(agents: usize) -> WorkloadSpec {
    WorkloadSpec {
        agents,
        residence_ms: None,
        queries: None,
        nodes: None,
        queriers: None,
        warmup_s: None,
        measure_s: None,
        grace_s: None,
        query_skew: None,
        mobility_skew: None,
        churn_lifespan_ms: None,
        churn_dist: None,
        loss: None,
        duplication: None,
        regions: None,
        inter_region_ms: None,
        freshness_ms: None,
    }
}

fn column(field: &str) -> ColumnSpec {
    ColumnSpec {
        field: field.to_string(),
        scheme: None,
        header: None,
    }
}

fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    (
        (10usize..400, proptest::option::of(100u64..1000)),
        (
            proptest::option::of(50u64..400),
            proptest::option::of(8u32..32),
        ),
        (
            proptest::option::of(5.0f64..30.0),
            proptest::option::of(0.0f64..0.05),
        ),
        (
            proptest::option::of(0.0f64..3.0),
            // A lifespan distribution only ever rides with a lifespan.
            proptest::option::of((
                1000u64..60_000,
                proptest::option::of(prop_oneof![Just("constant"), Just("exponential")]),
            )),
        ),
    )
        .prop_map(
            |(
                (agents, residence_ms),
                (queries, nodes),
                (grace_s, loss),
                (mobility_skew, churn),
            )| {
                WorkloadSpec {
                    residence_ms,
                    queries,
                    nodes,
                    grace_s,
                    loss,
                    mobility_skew,
                    churn_lifespan_ms: churn.map(|(ms, _)| ms),
                    churn_dist: churn.and_then(|(_, dist)| dist).map(str::to_string),
                    ..plain_workload(agents)
                }
            },
        )
}

fn arb_scheme() -> impl Strategy<Value = SchemeSpec> {
    prop_oneof![
        (
            (
                proptest::option::of(any::<bool>()),
                proptest::option::of(any::<bool>())
            ),
            (
                proptest::option::of(1.0f64..5.0),
                proptest::option::of(1usize..8)
            ),
        )
            .prop_map(
                |((patient, standby), (version_audit_s, rehash_concurrency))| SchemeSpec {
                    patient,
                    standby,
                    version_audit_s,
                    rehash_concurrency,
                    ..plain_scheme("hashed")
                }
            ),
        (0usize..3, proptest::option::of(any::<bool>())).prop_map(|(k, patient)| SchemeSpec {
            patient,
            ..plain_scheme(["centralized", "home-registry", "forwarding"][k])
        }),
    ]
}

fn axis(param: &str, values: Vec<f64>) -> Vec<AxisSpec> {
    vec![AxisSpec {
        param: param.to_string(),
        also: None,
        values,
        zip: None,
    }]
}

/// An `agents` axis with a `residence_ms` lane zipped to it.
fn zipped(agents: Vec<f64>, residences: Vec<f64>) -> Vec<AxisSpec> {
    let mut axes = axis("agents", agents);
    axes[0].zip = Some(vec![ZipSpec {
        param: "residence_ms".to_string(),
        values: residences,
    }]);
    axes
}

fn whole(values: Vec<u64>) -> Vec<f64> {
    values.into_iter().map(|v| v as f64).collect()
}

fn arb_sweep() -> impl Strategy<Value = Option<Vec<AxisSpec>>> {
    proptest::option::of(prop_oneof![
        proptest::collection::vec(50u64..500, 1..4).prop_map(|vs| axis("agents", whole(vs))),
        proptest::collection::vec(100u64..900, 1..4).prop_map(|vs| axis("residence_ms", whole(vs))),
        // Zero is the static population.
        proptest::collection::vec(0u64..60_000, 1..4)
            .prop_map(|vs| axis("churn_lifespan_ms", whole(vs))),
        proptest::collection::vec(0.0f64..1.0, 1..4).prop_map(|vs| axis("crash_frac", vs)),
        (
            proptest::collection::vec(0.0f64..3.0, 1..4),
            proptest::option::of(Just(vec!["query_skew".to_string()])),
        )
            .prop_map(|(values, also)| vec![AxisSpec {
                param: "mobility_skew".to_string(),
                also,
                values,
                zip: None,
            }]),
        // Points that are no product of axes: (agents, residence) pairs.
        proptest::collection::vec((50u64..500, 100u64..900), 1..4).prop_map(|points| {
            let (agents, residences): (Vec<u64>, Vec<u64>) = points.into_iter().unzip();
            zipped(whole(agents), whole(residences))
        }),
    ])
}

/// Some of the export names, in any order.
fn arb_exports() -> impl Strategy<Value = Option<Vec<String>>> {
    const EXPORTS: [&str; 4] = ["perfetto", "folded", "registry_json", "registry_csv"];
    proptest::option::of(
        proptest::collection::vec(0usize..EXPORTS.len(), 0..4)
            .prop_map(|idxs| idxs.into_iter().map(|i| EXPORTS[i].to_string()).collect()),
    )
}

/// Crash faults on distinct nodes inside the smallest generated
/// topology (8 nodes).
fn arb_crash() -> impl Strategy<Value = NodeCrashFaults> {
    (proptest::collection::vec(0u32..8, 1..4), 1u64..2000).prop_map(|(mut nodes, restart_ms)| {
        nodes.sort_unstable();
        nodes.dedup();
        NodeCrashFaults { nodes, restart_ms }
    })
}

fn crash_faults(crash: NodeCrashFaults) -> FaultSpec {
    FaultSpec {
        chaos: None,
        regional_partition: None,
        region_sever: None,
        node_crash: Some(crash),
    }
}

fn arb_columns() -> impl Strategy<Value = Vec<ColumnSpec>> {
    const FIELDS: [&str; 9] = [
        "issued",
        "completed",
        "success_pct",
        "p95_ms",
        "splits",
        "violations",
        "replication",
        "rec_p50_ms",
        "rec_p95_ms",
    ];
    proptest::collection::vec(0usize..FIELDS.len(), 1..5).prop_map(|idxs| {
        let mut cols: Vec<ColumnSpec> = Vec::new();
        for i in idxs {
            if !cols.iter().any(|c| c.field == FIELDS[i]) {
                cols.push(column(FIELDS[i]));
            }
        }
        cols
    })
}

fn arb_valid_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        (0u32..10_000, arb_workload()),
        (arb_sweep(), arb_scheme()),
        (
            proptest::option::of(any::<bool>()),
            proptest::option::of(proptest::collection::vec(any::<u64>(), 1..4)),
        ),
        (
            arb_columns(),
            proptest::option::of(arb_crash()),
            arb_exports(),
        ),
    )
        .prop_map(
            |(
                (n, mut workload),
                (mut sweep, scheme),
                (scheme_rows, seeds),
                (columns, crash, exports),
            )| {
                let swept = |param: &str| sweep.iter().flatten().any(|a| a.param == param);
                let (lifespan_swept, crash_swept) =
                    (swept("churn_lifespan_ms"), swept("crash_frac"));
                // A lifespan is fixed or swept, not both.
                if lifespan_swept {
                    workload.churn_lifespan_ms = None;
                    workload.churn_dist = None;
                }
                // Crash faults and a crash_frac axis come together.
                let crash = match crash {
                    None if crash_swept => Some(NodeCrashFaults {
                        nodes: vec![0],
                        restart_ms: 500,
                    }),
                    Some(crash) if !crash_swept => {
                        sweep
                            .get_or_insert_with(Vec::new)
                            .extend(axis("crash_frac", vec![0.5]));
                        Some(crash)
                    }
                    crash => crash,
                };
                ScenarioSpec {
                    name: format!("gen-{n}"),
                    title: format!("generated spec {n}"),
                    workload,
                    sweep,
                    schemes: vec![scheme],
                    scheme_rows,
                    seeds,
                    faults: crash.map(crash_faults),
                    spikes: None,
                    audit: None,
                    trace_buffer: None,
                    exports,
                    columns,
                }
            },
        )
}

/// One way to break a valid spec, with the path fragment the resulting
/// error must name.
type Breakage = (fn(&mut ScenarioSpec), &'static str);

fn arb_breakage() -> impl Strategy<Value = Breakage> {
    let cases: Vec<Breakage> = vec![
        (|s| s.name = "bad name!".to_string(), "name"),
        (|s| s.workload.agents = 0, "workload.agents"),
        (
            |s| s.workload.residence_ms = Some(0),
            "workload.residence_ms",
        ),
        (|s| s.workload.nodes = Some(0), "workload.nodes"),
        (|s| s.workload.loss = Some(1.5), "loss"),
        (|s| s.seeds = Some(Vec::new()), "seeds"),
        (|s| s.trace_buffer = Some(0), "trace_buffer"),
        (|s| s.schemes.clear(), "schemes"),
        (|s| s.schemes[0].kind = "quantum".to_string(), "kind"),
        (|s| s.schemes[0].threshold_min = Some(0.5), "threshold_min"),
        (|s| s.columns.clear(), "columns"),
        (|s| s.columns[0].field = "bogus".to_string(), "field"),
        (
            |s| s.sweep = Some(axis("teleportation", vec![1.0])),
            "param",
        ),
        (
            |s| {
                s.spikes = Some(vec![SpikeSpec {
                    at_frac: 0.2,
                    span_frac: 0.2,
                    queries_factor: Some(10),
                    queries: Some(100),
                    queriers: 8,
                }]);
            },
            "queries",
        ),
        (
            |s| {
                s.faults = Some(FaultSpec {
                    chaos: Some(ChaosFaults {
                        seed: 7,
                        intensity: Some(2.0),
                    }),
                    regional_partition: None,
                    region_sever: None,
                    node_crash: None,
                });
            },
            "intensity",
        ),
        (
            |s| s.workload.churn_dist = Some("gamma".to_string()),
            "workload.churn_dist",
        ),
        (
            |s| {
                s.sweep = Some(vec![AxisSpec {
                    param: "mobility_skew".to_string(),
                    also: Some(vec!["warp".to_string()]),
                    values: vec![1.0],
                    zip: None,
                }]);
            },
            "also",
        ),
        (
            |s| s.sweep = Some(zipped(vec![100.0, 200.0], vec![500.0])),
            "zip[0].values",
        ),
        (
            |s| s.exports = Some(vec!["perfetto".to_string(), "pprof".to_string()]),
            "exports[1]",
        ),
        (
            |s| s.sweep = Some(axis("mobility_skew", vec![0.5, -1.0])),
            "values",
        ),
        (
            |s| {
                s.sweep = None;
                s.workload.churn_lifespan_ms = None;
                s.workload.churn_dist = Some("exponential".to_string());
            },
            "workload.churn_dist",
        ),
        // The crash breakages set the sweep to one crash_frac axis, so
        // no other axis can claim the error first.
        (
            |s| {
                s.sweep = Some(axis("crash_frac", vec![0.5]));
                s.faults = Some(crash_faults(NodeCrashFaults {
                    nodes: vec![0, 99],
                    restart_ms: 500,
                }));
            },
            "faults.node_crash.nodes",
        ),
        (
            |s| {
                s.sweep = Some(axis("crash_frac", vec![0.5]));
                s.faults = Some(crash_faults(NodeCrashFaults {
                    nodes: vec![0],
                    restart_ms: 0,
                }));
            },
            "restart_ms",
        ),
        (
            |s| {
                s.sweep = None;
                s.faults = Some(crash_faults(NodeCrashFaults {
                    nodes: vec![0],
                    restart_ms: 500,
                }));
            },
            "faults.node_crash",
        ),
        (
            |s| {
                s.sweep = Some(axis("crash_frac", vec![0.5, 1.5]));
                s.faults = Some(crash_faults(NodeCrashFaults {
                    nodes: vec![0],
                    restart_ms: 500,
                }));
            },
            "values",
        ),
    ];
    (0..cases.len()).prop_map(move |i| cases[i])
}

proptest! {
    /// parse(to_json(spec)) is the identity on valid specs, and the
    /// JSON form itself is a fixed point.
    fn valid_specs_round_trip(spec in arb_valid_spec()) {
        prop_assert!(
            spec.validate().is_ok(),
            "generator produced an invalid spec: {:?}",
            spec.validate().err()
        );
        let json = spec.to_json();
        let reparsed = match ScenarioSpec::load_str(&json) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError::fail(format!(
                "round trip failed to parse: {e}"
            ))),
        };
        prop_assert_eq!(&reparsed, &spec);
        prop_assert_eq!(reparsed.to_json(), json);
    }

    /// Every class of semantic breakage surfaces as a `SpecError`
    /// naming the offending field — both from `validate` on the struct
    /// and from `load_str` on its JSON text (where the error also gains
    /// a source span when the key occurs literally).
    fn broken_specs_name_the_field(
        spec in arb_valid_spec(),
        breakage in arb_breakage(),
    ) {
        let (break_it, expect) = breakage;
        let mut spec = spec;
        break_it(&mut spec);
        let err = match spec.validate() {
            Err(e) => e,
            Ok(()) => return Err(TestCaseError::fail(format!(
                "breakage '{expect}' was not rejected"
            ))),
        };
        prop_assert!(
            err.path.contains(expect),
            "error path {:?} does not name {:?} (message: {})",
            err.path, expect, err.message
        );
        prop_assert!(!err.message.is_empty());
        let text_err = match ScenarioSpec::load_str(&spec.to_json()) {
            Err(e) => e,
            Ok(_) => return Err(TestCaseError::fail(
                "load_str accepted what validate rejected".to_string()
            )),
        };
        prop_assert!(text_err.path.contains(expect));
    }

    /// Arbitrary bytes never panic the loader.
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = ScenarioSpec::load_str(&text);
    }

    /// Truncating a valid document anywhere never panics the loader,
    /// and anything it rejects carries a non-empty path and message.
    fn truncation_never_panics(spec in arb_valid_spec(), frac in 0.0f64..1.0) {
        let json = spec.to_json();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((json.len() as f64) * frac) as usize;
        let mut cut = cut.min(json.len());
        while !json.is_char_boundary(cut) {
            cut -= 1;
        }
        if let Err(e) = ScenarioSpec::load_str(&json[..cut]) {
            prop_assert!(!e.path.is_empty());
            prop_assert!(!e.message.is_empty());
        }
    }
}
