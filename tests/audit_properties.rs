//! Property tests for the audit subsystem: recorded-legal histories
//! are accepted by every checker, seeded mutations (drop an
//! invocation / swap invocation-response rounds / forge a response)
//! are rejected, and dropping a *response* — which merely turns the
//! op into a Jepsen `:info` maybe-op — keeps the history legal. The
//! register's per-virtual-node split is tested against the single-
//! object check it replaced, on one and on two virtual nodes.

use proptest::prelude::*;
use std::time::Instant;
use virtual_infra::audit::linearizability::PENDING;
use virtual_infra::audit::{
    audit, audit_register_ops, check_register, check_register_linearizable, drop_response,
    merged_register_ops, mutate, prune_unread_writes, register_ops, CheckResult, History,
    HistoryRecorder, Mutation, RegOp, RegOpKind, Verdict,
};
use virtual_infra::core::vi::VnLayout;
use virtual_infra::radio::geometry::{Point, Rect};
use virtual_infra::radio::mobility::{MobilityModel, Static};
use virtual_infra::radio::{AdversaryKind, RadioConfig};
use virtual_infra::scenario::catalog::scenario;
use virtual_infra::scenario::{
    CmSpec, LayoutSpec, NemesisSpec, PlacementSpec, PopulationSpec, ScenarioSpec, WorkloadSpec,
};
use virtual_infra::traffic::{AppKind, DevicePlan, TrafficSpec, TrafficWorld};

fn arb_app() -> impl Strategy<Value = AppKind> {
    (0u8..4).prop_map(|i| AppKind::all()[i as usize])
}

/// Static devices round robin over virtual nodes at `vns`, three per
/// node; device `i` sits at node `i % vns.len()`, so the first
/// clients spread over the nodes.
fn world(vns: &[Point], seed: u64) -> TrafficWorld {
    let devices = (0..3 * vns.len())
        .map(|i| {
            let vn = vns[i % vns.len()];
            let start = Point::new(vn.x - 0.6 + 0.4 * (i / vns.len()) as f64, vn.y + 0.2);
            DevicePlan {
                start,
                mobility: Box::new(Static::new(start)) as Box<dyn MobilityModel>,
                spawn_at: None,
                crash_at: None,
            }
        })
        .collect();
    TrafficWorld {
        radio: RadioConfig::reliable(10.0, 20.0),
        layout: VnLayout::new(vns.to_vec(), 2.5),
        seed,
        adversary: AdversaryKind::None,
        devices,
    }
}

/// One virtual node at (50, 50) with three static devices close by.
fn small_world(seed: u64) -> TrafficWorld {
    world(&[Point::new(50.0, 50.0)], seed)
}

/// Two virtual nodes 60 m apart (out of each other's range).
fn two_vn_world(seed: u64) -> TrafficWorld {
    world(&[Point::new(50.0, 50.0), Point::new(110.0, 50.0)], seed)
}

/// The `linearizable` check of `history` as one object: the
/// reference the per-VN check must equal when there is one node.
fn whole_history_check(history: &History) -> CheckResult {
    audit_register_ops("register", &merged_register_ops(history))
        .checks
        .remove(0)
}

/// The per-VN `linearizable` check of a single-VN `history`, with the
/// witness's `vn 0: ` scope removed.
fn single_vn_check(history: &History) -> CheckResult {
    let mut check = check_register_linearizable(history);
    if let Some(w) = &mut check.witness {
        *w = w
            .strip_prefix("vn 0: ")
            .expect("scoped witness")
            .to_string();
    }
    check
}

proptest! {
    // Every case runs a full deployment plus up to five audits; keep
    // the count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite requirement: each checker accepts the history its
    /// app actually recorded and rejects every applicable seeded
    /// mutation of it.
    #[test]
    fn checkers_accept_recorded_histories_and_reject_mutations(
        app in arb_app(),
        seed in 0u64..1_000,
        mutation_seed in 0u64..1_000,
    ) {
        let spec = TrafficSpec::open(2, 0.4, 25).with_query_fraction(0.5);
        let (out, history) = HistoryRecorder::record(app, small_world(seed), &spec);
        prop_assert!(out.summary.issued > 0);
        let report = audit(&history);
        prop_assert!(
            report.ok(),
            "{}: recorded history must pass: {:?}",
            app.name(),
            report.violations()
        );

        let mut applied = 0;
        for m in Mutation::all() {
            if let Some(broken) = mutate(&history, m, mutation_seed) {
                applied += 1;
                let verdict = audit(&broken);
                prop_assert!(
                    !verdict.ok(),
                    "{}: {m:?} mutation must be rejected",
                    app.name()
                );
            }
        }
        // Histories with any completion always admit Drop and Swap.
        if out.summary.completed > 0 {
            prop_assert!(applied >= 2, "{}: mutations must apply", app.name());
        }

        // Removing a response is NOT a corruption: the op becomes
        // concurrent-forever and the history stays legal.
        if let Some(looser) = drop_response(&history, mutation_seed) {
            let verdict = audit(&looser);
            prop_assert!(
                verdict.ok(),
                "{}: dropping a response must stay legal: {:?}",
                app.name(),
                verdict.violations()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// On a single virtual node the per-VN register check is the
    /// whole-history check: same verdict, count and witness, on the
    /// recorded history, on every mutation of it, and with a response
    /// dropped.
    #[test]
    fn per_vn_check_equals_the_whole_history_check_on_one_vn(
        seed in 0u64..1_000,
        mutation_seed in 0u64..1_000,
    ) {
        let spec = TrafficSpec::open(2, 0.4, 25).with_query_fraction(0.5);
        let (_, history) = HistoryRecorder::record(AppKind::Register, small_world(seed), &spec);
        let mut variants = vec![history.clone()];
        variants.extend(Mutation::all().iter().filter_map(|&m| mutate(&history, m, mutation_seed)));
        variants.extend(drop_response(&history, mutation_seed));
        for h in &variants {
            prop_assert_eq!(single_vn_check(h), whole_history_check(h));
        }
    }

    /// Two virtual nodes, two registers: the recorded history passes,
    /// both nodes serve ops, and every applicable mutation is rejected.
    #[test]
    fn two_vn_histories_pass_and_mutations_are_rejected(
        seed in 0u64..1_000,
        mutation_seed in 0u64..1_000,
    ) {
        let spec = TrafficSpec::open(2, 0.4, 25).with_query_fraction(0.5);
        let (out, history) = HistoryRecorder::record(AppKind::Register, two_vn_world(seed), &spec);
        let report = audit(&history);
        prop_assert!(report.ok(), "recorded history must pass: {:?}", report.violations());
        prop_assert_eq!(register_ops(&history).len(), 2, "both nodes serve ops");
        let mut applied = 0;
        for m in Mutation::all() {
            if let Some(broken) = mutate(&history, m, mutation_seed) {
                applied += 1;
                prop_assert!(!audit(&broken).ok(), "{:?} mutation must be rejected", m);
            }
        }
        if out.summary.completed > 0 {
            prop_assert!(applied >= 2, "mutations must apply");
        }
        if let Some(looser) = drop_response(&history, mutation_seed) {
            prop_assert!(audit(&looser).ok(), "dropping a response must stay legal");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pruning timed-out writes no read returned never changes the
    /// verdict, on random (mostly illegal) histories of up to 12 ops.
    #[test]
    fn pruning_unread_info_writes_keeps_the_verdict(
        raw in proptest::collection::vec((0u8..2, 0u64..8, 0u64..12, 0u64..4, 0u8..3), 0..13usize),
    ) {
        let ops: Vec<RegOp> = raw
            .iter()
            .enumerate()
            .map(|(i, &(write, returned, inv, len, pending))| {
                let id = i as u64 + 1;
                let (kind, ret) = if write == 0 {
                    let ret = if pending == 0 { PENDING } else { inv + len };
                    (RegOpKind::Write { value: id }, ret)
                } else {
                    (RegOpKind::Read { returned }, inv + len)
                };
                RegOp { id, kind, inv, ret }
            })
            .collect();
        let full = check_register(&ops);
        let pruned = check_register(&prune_unread_writes(&ops));
        prop_assert_eq!(
            std::mem::discriminant(&full),
            std::mem::discriminant(&pruned),
            "{:?} vs {:?} on {:?}",
            full,
            pruned,
            ops
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The WGL checker passes every synthetic legal history and
    /// catches a planted stale read in any of them.
    #[test]
    fn wgl_accepts_legal_and_catches_planted_staleness(
        len in 10usize..200,
        seed in 0u64..1_000,
    ) {
        use virtual_infra::audit::{check_register, synthetic_history, LinResult, RegOp, RegOpKind};
        let mut ops = synthetic_history(len, seed);
        prop_assert_eq!(check_register(&ops), LinResult::Ok);
        // Plant a write + stale read after the end of the history.
        let t = ops.last().map(|o| o.inv + 10).unwrap_or(0);
        ops.push(RegOp { id: 900_000, kind: RegOpKind::Write { value: 77 }, inv: t, ret: t + 1 });
        ops.push(RegOp { id: 900_001, kind: RegOpKind::Read { returned: 0 }, inv: t + 3, ret: t + 4 });
        prop_assert!(matches!(
            check_register(&ops),
            LinResult::Violation { .. }
        ));
    }
}

/// The E17 nemesis scenarios deploy one virtual node, so rebased onto
/// the register their per-VN audit equals the whole-history one.
#[test]
fn e17_register_audits_equal_the_whole_history_check() {
    for name in ["blackout_market", "quake_drill"] {
        let mut spec = scenario(name).expect("catalog scenario");
        let WorkloadSpec::Traffic { app, traffic, .. } = &mut spec.workload else {
            panic!("{name}: traffic workload");
        };
        *app = AppKind::Register;
        let traffic = traffic.clone();
        for seed in 1..=3 {
            let world = spec.traffic_world(seed).expect("traffic world");
            let (_, history) = HistoryRecorder::record(AppKind::Register, world, &traffic);
            let per_vn = single_vn_check(&history);
            assert!(per_vn.ok(), "{name} seed {seed}: {per_vn:?}");
            assert_eq!(per_vn, whole_history_check(&history), "{name} seed {seed}");
            assert_eq!(spec.run(seed).audit, Some(audit(&history)));
        }
    }
}

/// Register traffic on a `k × k` virtual-node grid 60 m apart: two
/// clients and four more emulators clustered at each node, closed
/// loop, think time 2, half reads, audited.
fn register_grid(k: usize) -> ScenarioSpec {
    let origin = Point::new(50.0, 50.0);
    let spacing = 60.0;
    let locations: Vec<Point> = (0..k * k)
        .map(|i| {
            let (r, c) = (i / k, i % k);
            Point::new(origin.x + c as f64 * spacing, origin.y + r as f64 * spacing)
        })
        .collect();
    let cluster = |count: usize, center: Point| {
        PopulationSpec::fixed(
            count,
            PlacementSpec::Cluster {
                center,
                radius: 0.4,
            },
        )
    };
    ScenarioSpec {
        name: format!("register_grid_{k}x{k}_audited"),
        arena: Rect::square((k - 1) as f64 * spacing + 100.0),
        radio: RadioConfig::reliable(10.0, 20.0),
        populations: locations
            .iter()
            .map(|&loc| cluster(2, loc))
            .chain(locations.iter().map(|&loc| cluster(4, loc)))
            .collect(),
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::Traffic {
            app: AppKind::Register,
            layout: LayoutSpec::Grid {
                rows: k,
                cols: k,
                spacing,
                origin,
                region_radius: 2.5,
            },
            traffic: TrafficSpec::closed(2 * k * k, 1, 2, 40).with_query_fraction(0.5),
            audit: true,
        },
    }
}

/// The acceptance of the per-VN audit: an audited 16×16 register grid
/// (1536 devices, 256 virtual nodes) reaches a verdict, and checking
/// takes under half of the time from spec to verdict. (The single-
/// object check ran out of search budget on this history.)
#[test]
fn audited_16x16_register_grid_reaches_a_verdict_cheaply() {
    let spec = register_grid(16);
    assert_eq!(spec.node_count(), 1536);
    let WorkloadSpec::Traffic { traffic, .. } = &spec.workload else {
        panic!("traffic workload");
    };
    let start = Instant::now();
    let world = spec.traffic_world(1).expect("traffic world");
    assert_eq!(world.layout.len(), 256);
    let (out, history) = HistoryRecorder::record(AppKind::Register, world, traffic);
    let checking = Instant::now();
    let report = audit(&history);
    let (audit_s, total_s) = (
        checking.elapsed().as_secs_f64(),
        start.elapsed().as_secs_f64(),
    );
    assert!(out.summary.timed_out > 0, "the grid times ops out");
    let verdict = report.checks[1].verdict;
    assert_ne!(
        verdict,
        Verdict::Inconclusive,
        "{}",
        report.verdict_summary()
    );
    assert!(report.ok(), "{:?}", report.violations());
    assert!(
        audit_s < 0.5 * total_s,
        "audit {audit_s:.3}s of {total_s:.3}s end to end"
    );
}
