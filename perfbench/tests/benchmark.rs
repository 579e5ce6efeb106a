//! The benchmark's own checks: the timing wrapper is transparent, the
//! traced run reproduces the untraced one, names are legal, and
//! `BENCHMARK.json` declares exactly what the command prints.

use serde::Deserialize;
use vi_perfbench::layers::{trace_scenario, traffic_world, Split};
use vi_perfbench::metrics::{valid_name, Metric, END_TO_END, PER_LAYER};
use vi_perfbench::reps::{accounting, check_outcomes, run_rep};
use vi_perfbench::timed::TimedService;
use vi_perfbench::workloads::{register_grid, Workload, NAMES};
use vi_scenario::{EngineTuning, WorkloadSpec};
use vi_traffic::{build_service, drive, drive_recorded, Service};

#[test]
fn timed_service_delegates_every_call() {
    let spec = register_grid(2, false);
    let WorkloadSpec::Traffic { app, traffic, .. } = &spec.workload else {
        panic!("traffic workload");
    };
    for seed in [1, 2] {
        let world = || traffic_world(&spec, seed).expect("traffic world");
        let mut plain = build_service(*app, world(), traffic.clients);
        let mut timed = TimedService::new(build_service(*app, world(), traffic.clients));
        assert_eq!(timed.app(), plain.app());
        assert_eq!(timed.clients(), plain.clients());
        let a = drive(plain.as_mut(), traffic, seed);
        let b = drive(&mut timed, traffic, seed);
        assert_eq!(a, b, "seed {seed}: wrapped drive must equal unwrapped");
        assert_eq!(timed.stats(), plain.stats());
        assert_eq!(timed.virtual_round(), plain.virtual_round());
        let (ta, tb) = (plain.world_totals(), timed.world_totals());
        assert_eq!(
            (ta.decided, ta.bottom, ta.joins, ta.resets),
            (tb.decided, tb.bottom, tb.joins, tb.resets)
        );
        assert_eq!(timed.step_ns.len() as u64, timed.virtual_round());
        assert!(timed.submit_ns > 0);

        let mut plain = build_service(*app, world(), traffic.clients);
        let mut timed = TimedService::new(build_service(*app, world(), traffic.clients));
        assert_eq!(
            drive_recorded(plain.as_mut(), traffic, seed),
            drive_recorded(&mut timed, traffic, seed),
            "seed {seed}: wrapped history must equal unwrapped"
        );
    }
}

#[test]
fn traced_traffic_run_reproduces_the_untraced_outcome() {
    let spec = register_grid(2, true);
    let plain = spec.run_with(5, EngineTuning::DEFAULT);
    let mut split = Split::default();
    trace_scenario(&spec, 5, EngineTuning::DEFAULT, &plain, &mut split).expect("reproduces");
    let summary = plain.traffic.as_ref().expect("traffic summary");
    assert_eq!(split.issued, summary.issued);
    assert_eq!(split.completed, summary.completed);
    assert_eq!(split.audit_ops, summary.issued);
    assert!(split.total_s >= split.audit_s + split.drive_s);

    // A different seed's outcome must not pass for this one.
    let other = register_grid(2, true).run_with(6, EngineTuning::DEFAULT);
    if other.traffic != plain.traffic || other.audit != plain.audit {
        let mut split = Split::default();
        assert!(trace_scenario(&spec, 5, EngineTuning::DEFAULT, &other, &mut split).is_err());
    }
}

#[test]
fn audited_failures_count_whole_histories() {
    let out = register_grid(2, true).run_with(1, EngineTuning::DEFAULT);
    let t = out.traffic.as_ref().expect("traffic summary");
    let (attempted, failed, done) = accounting(&out);
    assert_eq!((attempted, done), (t.issued, t.completed));
    let ok = out.audit.as_ref().expect("audit report").ok();
    let expected = if ok {
        t.timed_out + t.in_flight_at_end
    } else {
        t.issued
    };
    assert_eq!(failed, expected);
}

#[test]
fn outcome_checks_catch_inconsistent_outcomes() {
    let w = Workload {
        name: "register_audit",
        specs: vec![register_grid(2, true)],
        seeds_per_rep: 1,
        engine: false,
    };
    let (_, mut outs) = run_rep(&w, 3, EngineTuning::DEFAULT);
    assert_eq!(check_outcomes(&w, &outs), Vec::<String>::new());
    outs[0].traffic.as_mut().expect("traffic summary").completed += 1;
    assert_eq!(check_outcomes(&w, &outs).len(), 1);
    outs[0].audit = None;
    assert_eq!(check_outcomes(&w, &outs).len(), 2);
    assert!(!check_outcomes(&w, &outs[..0]).is_empty());
}

#[test]
fn names_are_legal_and_unique() {
    let metrics: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    for name in NAMES.iter().chain(&metrics) {
        assert!(valid_name(name), "{name:?}");
    }
    let mut all: Vec<&str> = NAMES.iter().copied().chain(metrics).collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "names must be unique");
    assert!(!valid_name("has space") && !valid_name("_lead") && !valid_name(""));
}

#[derive(Deserialize)]
struct Declared {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<DeclaredWorkload>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

#[derive(Deserialize)]
struct DeclaredWorkload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

fn same_metrics<'a>(
    declared: impl Iterator<Item = (&'a str, &'a str, &'a str)>,
    printed: &[Metric],
) {
    let printed = printed.iter().map(|m| {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        (m.name, m.unit, better)
    });
    assert!(
        declared.eq(printed),
        "declared metrics differ from the printed ones"
    );
}

#[test]
fn benchmark_json_declares_what_the_command_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let b: Declared = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(b.command, ["python3", "perfbench/run.py"]);
    assert_eq!(b.paths, ["perfbench"]);
    assert!((1..=60).contains(&b.run_seconds));
    let names: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, NAMES);
    assert!(b
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200));
    same_metrics(
        b.end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str())),
        &END_TO_END,
    );
    same_metrics(
        b.per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str())),
        &PER_LAYER,
    );
    assert!(b
        .end_to_end
        .iter()
        .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    let setup = b
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(b.end_to_end.iter().all(|m| m.bound <= setup.bound));
}
