//! One untraced repetition of a workload through the user's entry
//! point, `ScenarioSpec::run_with`, and its failure accounting.

use crate::stats::{combine, digest};
use crate::workloads::Workload;
use std::time::Instant;
use vi_scenario::{EngineTuning, ScenarioOutcome, WorkloadSpec};

/// What one repetition measured.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Wall time from spec to final verdict, all scenarios.
    pub secs: f64,
    /// Wall time of each scenario, in run order.
    pub scenario_secs: Vec<f64>,
    /// Real (slotted) rounds simulated.
    pub rounds: u64,
    /// Ops that completed (CHA outputs checked; client ops completed).
    pub done: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Digest of every scenario's outcome, in order.
    pub digest: u64,
}

/// `(attempted, failed, done)` of one outcome.
///
/// * CHA workloads: the ops are the CHA outputs checked; a failure is
///   a `ChaSpecChecker` safety violation.
/// * Unaudited traffic: the ops are the client ops issued; a failure
///   is an op that timed out or was still in flight at the end.
/// * Audited traffic: as unaudited, except that every op of a history
///   whose audit verdict is not `Pass` counts as failed.
pub fn accounting(out: &ScenarioOutcome) -> (u64, u64, u64) {
    match &out.traffic {
        None => {
            let checked = out.outputs_checked as u64;
            (checked, out.safety_violations() as u64, checked)
        }
        Some(t) => {
            let failed = if out.audit.as_ref().is_some_and(|r| !r.ok()) {
                t.issued
            } else {
                t.timed_out + t.in_flight_at_end
            };
            (t.issued, failed, t.completed)
        }
    }
}

/// Checks one repetition's outcomes (seed-major, in spec order, as
/// [`run_rep`] returns them) for internal consistency; returns one
/// message per inconsistency. Verdicts themselves are not judged.
pub fn check_outcomes(w: &Workload, outs: &[ScenarioOutcome]) -> Vec<String> {
    let mut errors = Vec::new();
    if outs.len() != w.specs.len() * w.seeds_per_rep as usize {
        errors.push(format!("{} outcomes for one repetition", outs.len()));
    }
    for (spec, out) in w.specs.iter().cycle().zip(outs) {
        let mut fail = |what: &str| errors.push(format!("{} seed {}: {what}", spec.name, out.seed));
        if out.scenario != spec.name || out.nodes != spec.node_count() {
            fail("outcome names another scenario");
        }
        if spec.planned_rounds().is_some_and(|r| r != out.rounds) {
            fail("ran a different number of rounds than planned");
        }
        if !(0.0..=1.0).contains(&out.decided_fraction) {
            fail("decided fraction outside [0, 1]");
        }
        match (&spec.workload, &out.traffic) {
            (WorkloadSpec::Traffic { audit, .. }, Some(t)) => {
                if t.completed + t.timed_out + t.in_flight_at_end != t.issued {
                    fail("issued ops do not resolve exactly once");
                }
                match (&out.audit, audit) {
                    (Some(r), true) if r.ops != t.issued || r.timeouts != t.timed_out => {
                        fail("audited history disagrees with the traffic summary")
                    }
                    (Some(_), true) | (None, false) => {}
                    _ => fail("audit report present iff audited"),
                }
            }
            (WorkloadSpec::Traffic { .. }, None) => fail("traffic run without a summary"),
            (_, _) if out.outputs_checked == 0 => fail("no CHA outputs checked"),
            _ => {}
        }
    }
    errors
}

/// Runs every scenario of `w` at each of its seeds for run seed
/// `seed`, under `tuning`. Outcomes come seed-major, in spec order.
pub fn run_rep(w: &Workload, seed: u64, tuning: EngineTuning) -> (Rep, Vec<ScenarioOutcome>) {
    run_rep_between(w, seed, tuning, &mut || {})
}

/// As [`run_rep`], calling `between` after each scenario, outside the
/// timed spans: the times count scenario time only.
pub fn run_rep_between(
    w: &Workload,
    seed: u64,
    tuning: EngineTuning,
    between: &mut dyn FnMut(),
) -> (Rep, Vec<ScenarioOutcome>) {
    let mut scenario_secs = Vec::new();
    let mut outs = Vec::new();
    for s in w.seeds(seed) {
        for spec in &w.specs {
            let t = Instant::now();
            outs.push(spec.run_with(s, tuning));
            scenario_secs.push(t.elapsed().as_secs_f64());
            between();
        }
    }
    let mut rep = Rep {
        secs: scenario_secs.iter().sum(),
        scenario_secs,
        rounds: 0,
        done: 0,
        attempted: 0,
        failed: 0,
        digest: combine(outs.iter().map(digest)),
    };
    for out in &outs {
        let (attempted, failed, done) = accounting(out);
        rep.rounds += out.rounds;
        rep.attempted += attempted;
        rep.failed += failed;
        rep.done += done;
    }
    (rep, outs)
}
