//! The traced run: splits one repetition's time across the crates by
//! timing calls into their public functions from outside.
//!
//! * Engine (CHA) scenarios run through `ScenarioSpec::run_with` with
//!   `EngineTuning::with_telemetry()`, whose phase timers and counters
//!   give the radio (advance, geometry, finalize) and CHA (deliver,
//!   checker) split. Compilation is timed as a run of the same spec
//!   with zero CHA instances.
//! * Traffic scenarios rebuild the `TrafficWorld` from the spec the
//!   way the scenario compiler does, wrap `build_service(..)` in a
//!   [`TimedService`], and time `drive_recorded` and `vi_audit::audit`
//!   around it. The result must reproduce the untraced outcome's
//!   `TrafficSummary` and `AuditReport` exactly.

use crate::stats::{digest, quantile};
use crate::timed::TimedService;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::time::Instant;
use vi_audit::{audit, History, Verdict};
use vi_scenario::{EngineTuning, ScenarioOutcome, ScenarioSpec, WorkloadSpec};
use vi_telemetry::{CausalRecorder, FlightRecorder, LatencyHistogram, Phase};
use vi_traffic::{build_service, drive_recorded, DevicePlan, Service, TrafficEvent, TrafficWorld};

/// Salt of the scenario compiler's placement stream (kept equal to
/// `vi-scenario`'s, so the rebuilt world matches the compiled one;
/// the reproduction check catches any drift).
const PLACEMENT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Raw per-layer totals of one traced repetition (summed over its
/// scenarios; times in seconds).
#[derive(Clone, Debug, Default)]
pub struct Split {
    /// Wall time of the whole traced repetition.
    pub total_s: f64,
    /// vi-scenario: compile and placement (traffic: plus `build_service`).
    pub compile_s: f64,
    pub advance_s: f64,
    pub geometry_s: f64,
    pub finalize_s: f64,
    pub finalize_us_p50: f64,
    pub finalize_us_p99: f64,
    pub grid_queries: u64,
    pub rounds_total: u64,
    pub rounds_steady: u64,
    pub rounds_scatter: u64,
    pub rounds_reanchor: u64,
    pub rounds_churn: u64,
    pub sharded_rounds: u64,
    pub receptions: u64,
    pub collisions: u64,
    pub deliver_s: f64,
    pub checker_s: f64,
    pub outputs_checked: u64,
    /// Σ decided_fraction × outputs (for the pooled fraction).
    pub decided_outputs: f64,
    pub safety_violations: u64,
    /// Wall nanoseconds of every `step_round` call.
    pub step_ns: Vec<u64>,
    pub submit_s: f64,
    /// Wall time inside `drive_recorded` (driver + VI + submit).
    pub drive_s: f64,
    /// Wall time of the end-of-run `stats` / `world_totals` queries.
    pub totals_s: f64,
    pub vn_decided: u64,
    pub vn_bottom: u64,
    pub vn_joins: u64,
    pub vn_resets: u64,
    pub issued: u64,
    pub completed: u64,
    pub timed_out: u64,
    pub clients: u64,
    pub clients_served: u64,
    pub latency: LatencyHistogram,
    pub audit_s: f64,
    pub audit_ops: u64,
    pub info_ops: u64,
    pub not_pass: u64,
}

impl Split {
    /// Wall time no timed layer covers.
    pub fn unaccounted_s(&self) -> f64 {
        self.total_s
            - self.compile_s
            - self.advance_s
            - self.geometry_s
            - self.finalize_s
            - self.deliver_s
            - self.checker_s
            - self.drive_s
            - self.totals_s
            - self.audit_s
    }

    /// Each layer's share of the traced wall time, in table order.
    pub fn shares(&self) -> [(&'static str, f64); 7] {
        let step_s = self.step_ns.iter().sum::<u64>() as f64 * 1e-9;
        let t = self.total_s.max(f64::MIN_POSITIVE);
        [
            ("scenario", self.compile_s / t),
            (
                "radio",
                (self.advance_s + self.geometry_s + self.finalize_s) / t,
            ),
            ("cha", (self.deliver_s + self.checker_s) / t),
            ("vi", (step_s + self.totals_s) / t),
            ("traffic", (self.drive_s - step_s) / t),
            ("audit", self.audit_s / t),
            ("unaccounted", self.unaccounted_s() / t),
        ]
    }

    /// The per-layer metrics of this repetition, as `(name, value)`
    /// rows. `telemetry.overhead_frac` needs untraced runs too, so
    /// the caller adds it.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let step_s = self.step_ns.iter().sum::<u64>() as f64 * 1e-9;
        let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let hist_q = |q: u64| {
            if self.latency.count() == 0 {
                0.0
            } else {
                q as f64
            }
        };
        let shares = self.shares();
        let share = |name: &str| {
            shares
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        vec![
            ("scenario.compile_s", self.compile_s),
            ("radio.advance_s", self.advance_s),
            ("radio.geometry_s", self.geometry_s),
            ("radio.finalize_s", self.finalize_s),
            ("radio.finalize_us_p50", self.finalize_us_p50),
            ("radio.finalize_us_p99", self.finalize_us_p99),
            ("radio.grid_queries", self.grid_queries as f64),
            ("radio.rounds_steady", self.rounds_steady as f64),
            ("radio.rounds_scatter", self.rounds_scatter as f64),
            ("radio.rounds_reanchor", self.rounds_reanchor as f64),
            ("radio.rounds_churn", self.rounds_churn as f64),
            (
                "radio.steady_frac",
                frac(
                    (self.rounds_steady + self.rounds_scatter) as f64,
                    self.rounds_total as f64,
                ),
            ),
            ("radio.sharded_rounds", self.sharded_rounds as f64),
            ("radio.receptions", self.receptions as f64),
            ("radio.collisions", self.collisions as f64),
            ("cha.deliver_s", self.deliver_s),
            ("cha.checker_s", self.checker_s),
            ("cha.outputs_checked", self.outputs_checked as f64),
            (
                "cha.decided_frac",
                frac(self.decided_outputs, self.outputs_checked as f64),
            ),
            ("cha.safety_violations", self.safety_violations as f64),
            ("vi.step_round_s", step_s),
            ("vi.world_totals_s", self.totals_s),
            (
                "vi.vround_us_p50",
                quantile(&self.step_ns, 0.5) as f64 * 1e-3,
            ),
            (
                "vi.vround_us_p90",
                quantile(&self.step_ns, 0.9) as f64 * 1e-3,
            ),
            (
                "vi.vn_decided_frac",
                frac(
                    self.vn_decided as f64,
                    (self.vn_decided + self.vn_bottom) as f64,
                ),
            ),
            ("vi.vn_joins", self.vn_joins as f64),
            ("vi.vn_resets", self.vn_resets as f64),
            ("traffic.driver_s", self.drive_s - step_s - self.submit_s),
            ("traffic.submit_s", self.submit_s),
            ("traffic.issued", self.issued as f64),
            ("traffic.completed", self.completed as f64),
            ("traffic.timed_out", self.timed_out as f64),
            (
                "traffic.clients_served_frac",
                frac(self.clients_served as f64, self.clients as f64),
            ),
            ("traffic.latency_vr_p50", hist_q(self.latency.p50())),
            ("traffic.latency_vr_p95", hist_q(self.latency.p95())),
            ("audit.check_s", self.audit_s),
            ("audit.ops", self.audit_ops as f64),
            ("audit.info_ops", self.info_ops as f64),
            ("audit.ops_per_s", frac(self.audit_ops as f64, self.audit_s)),
            ("audit.not_pass", self.not_pass as f64),
            ("unaccounted_frac", share("unaccounted")),
            ("traced_verdict_s", self.total_s),
            ("share.scenario", share("scenario")),
            ("share.radio", share("radio")),
            ("share.cha", share("cha")),
            ("share.vi", share("vi")),
            ("share.traffic", share("traffic")),
            ("share.audit", share("audit")),
        ]
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Traces one scenario into `split`, checking the traced result
/// against the untraced outcome `plain` of the same `(spec, seed)`.
///
/// # Errors
///
/// Describes the first way the traced run disagrees with `plain`.
pub fn trace_scenario(
    spec: &ScenarioSpec,
    seed: u64,
    tuning: EngineTuning,
    plain: &ScenarioOutcome,
    split: &mut Split,
) -> Result<(), String> {
    match &spec.workload {
        WorkloadSpec::Traffic { .. } => trace_traffic(spec, seed, plain, split),
        _ => trace_engine(spec, seed, tuning, plain, split),
    }
}

fn trace_engine(
    spec: &ScenarioSpec,
    seed: u64,
    tuning: EngineTuning,
    plain: &ScenarioOutcome,
    split: &mut Split,
) -> Result<(), String> {
    let WorkloadSpec::ChaClique { .. } = spec.workload else {
        return Err(format!("{}: unsupported engine workload", spec.name));
    };
    let mut compile_only = spec.clone();
    compile_only.workload = WorkloadSpec::ChaClique { instances: 0 };
    let t = Instant::now();
    compile_only.run_with(seed, tuning.with_telemetry());
    let compile_s = secs(t);

    let t = Instant::now();
    let out = spec.run_with(seed, tuning.with_telemetry());
    let total_s = secs(t);
    if digest(&out) != digest(plain) {
        return Err(format!(
            "{}: telemetry changed the outcome of seed {seed}",
            spec.name
        ));
    }
    let tel = out
        .telemetry
        .as_ref()
        .ok_or_else(|| format!("{}: telemetry requested but absent", spec.name))?;
    // (total, p50, p99) in microseconds; zeros for a phase that never ran.
    let phase = |p: Phase| {
        tel.phases
            .get(p)
            .map_or((0, 0, 0), |s| (s.total_us, s.p50_us, s.p99_us))
    };
    let us = |v: u64| v as f64 * 1e-6;
    let c = &tel.counters;
    let (fin_total, fin_p50, fin_p99) = phase(Phase::Finalize);
    split.total_s += total_s;
    split.compile_s += compile_s;
    split.advance_s += us(phase(Phase::Advance).0);
    split.geometry_s += us(phase(Phase::Geometry).0);
    split.finalize_s += us(fin_total);
    split.finalize_us_p50 = split.finalize_us_p50.max(fin_p50 as f64);
    split.finalize_us_p99 = split.finalize_us_p99.max(fin_p99 as f64);
    split.deliver_s += us(phase(Phase::Deliver).0);
    split.checker_s += us(phase(Phase::Checker).0);
    split.grid_queries += c.grid_queries;
    split.rounds_total += c.rounds_total;
    split.rounds_steady += c.rounds_steady;
    split.rounds_scatter += c.rounds_scatter;
    split.rounds_reanchor += c.rounds_reanchor;
    split.rounds_churn += c.rounds_churn;
    split.sharded_rounds += tel.sharded_rounds;
    split.receptions += c.receptions;
    split.collisions += c.collisions;
    split.outputs_checked += out.outputs_checked as u64;
    split.decided_outputs += out.decided_fraction * out.outputs_checked as f64;
    split.safety_violations += out.safety_violations() as u64;
    Ok(())
}

/// The world the scenario compiler builds for a traffic spec: seeded
/// placement in population order, spawn/crash plans, nemesis crashes
/// folded into the churn, nemesis faults composed over the adversary.
pub fn traffic_world(spec: &ScenarioSpec, seed: u64) -> Option<TrafficWorld> {
    let WorkloadSpec::Traffic {
        layout, traffic, ..
    } = &spec.workload
    else {
        return None;
    };
    let mut place_rng = StdRng::seed_from_u64(seed ^ PLACEMENT_SALT);
    let mut devices = Vec::with_capacity(spec.node_count());
    for pop in &spec.populations {
        for j in 0..pop.count {
            let start = pop.placement.position(j, spec.arena, &mut place_rng);
            let spawn = pop.spawn_at + j as u64 * pop.spawn_stride;
            devices.push(DevicePlan {
                start,
                mobility: pop.mobility.build(start, spec.arena),
                spawn_at: (spawn > 0).then_some(spawn),
                crash_at: pop.crash_at,
            });
        }
    }
    spec.nemesis.apply_crashes(&mut devices, traffic.clients);
    Some(TrafficWorld {
        radio: spec.radio,
        layout: layout.build(),
        seed,
        adversary: spec.nemesis.compile_adversary(&spec.adversary),
        devices,
    })
}

fn trace_traffic(
    spec: &ScenarioSpec,
    seed: u64,
    plain: &ScenarioOutcome,
    split: &mut Split,
) -> Result<(), String> {
    let WorkloadSpec::Traffic {
        app,
        traffic,
        audit: audited,
        ..
    } = &spec.workload
    else {
        unreachable!("dispatched on the traffic workload");
    };
    let t0 = Instant::now();
    let tw = traffic_world(spec, seed).expect("traffic workload");
    let mut service = TimedService::new(build_service(*app, tw, traffic.clients));
    service.set_telemetry(CausalRecorder::disabled(), FlightRecorder::disabled());
    let compile_s = secs(t0);

    let t1 = Instant::now();
    let (summary, events) = drive_recorded(&mut service, traffic, seed);
    let drive_s = secs(t1);

    let served: BTreeSet<u32> = events
        .iter()
        .filter_map(|e| match e {
            TrafficEvent::Complete { client, .. } => Some(*client),
            _ => None,
        })
        .collect();
    let t = Instant::now();
    let stats = service.stats();
    let totals = service.world_totals();
    let totals_s = secs(t);
    let t2 = Instant::now();
    let report = audited.then(|| {
        let report = audit(&History::from_events(*app, events));
        // The checker frees its search memo on return; the allocator
        // defers consolidating those frees to the next large request.
        // Make that request here, so the cost is charged to audit and
        // not to whatever the next scenario allocates first.
        drop(std::hint::black_box(Vec::<u8>::with_capacity(64 << 10)));
        report
    });
    let audit_s = if *audited { secs(t2) } else { 0.0 };
    let total_s = secs(t0);

    if plain.traffic.as_ref() != Some(&summary) {
        return Err(format!(
            "{}: traced traffic summary differs from the untraced run",
            spec.name
        ));
    }
    if plain.audit != report {
        return Err(format!(
            "{}: traced audit report differs from the untraced run",
            spec.name
        ));
    }
    if plain.rounds != stats.rounds
        || plain.vn_joins != totals.joins
        || plain.vn_resets != totals.resets
    {
        return Err(format!(
            "{}: traced world counters differ from the untraced run",
            spec.name
        ));
    }

    split.total_s += total_s;
    split.compile_s += compile_s;
    split.drive_s += drive_s;
    split.totals_s += totals_s;
    split.submit_s += service.submit_ns as f64 * 1e-9;
    split.step_ns.extend_from_slice(&service.step_ns);
    split.receptions += stats.deliveries;
    split.collisions += stats.collision_reports;
    split.vn_decided += totals.decided;
    split.vn_bottom += totals.bottom;
    split.vn_joins += totals.joins;
    split.vn_resets += totals.resets;
    split.issued += summary.issued;
    split.completed += summary.completed;
    split.timed_out += summary.timed_out;
    split.clients += traffic.clients as u64;
    split.clients_served += served.len() as u64;
    split.latency.merge(&summary.latency);
    if let Some(report) = &report {
        split.audit_s += audit_s;
        split.audit_ops += report.ops;
        split.info_ops += report.timeouts;
        split.not_pass += report
            .checks
            .iter()
            .filter(|c| c.verdict != Verdict::Pass)
            .count() as u64;
    }
    Ok(())
}
