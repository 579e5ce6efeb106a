//! Every metric the benchmark prints: name, unit, and which direction
//! is better. `BENCHMARK.json` must list exactly these (a test checks).

/// One metric's declaration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Metric; 5] = [
    lower("setup_s", "s"),
    lower("verdict_s", "s"),
    higher("rounds_per_s", "1/s"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, grouped by crate.
pub const PER_LAYER: [Metric; 49] = [
    lower("scenario.compile_s", "s"),
    lower("radio.advance_s", "s"),
    lower("radio.geometry_s", "s"),
    lower("radio.finalize_s", "s"),
    lower("radio.finalize_us_p50", "us"),
    lower("radio.finalize_us_p99", "us"),
    lower("radio.grid_queries", "count"),
    higher("radio.rounds_steady", "count"),
    higher("radio.rounds_scatter", "count"),
    lower("radio.rounds_reanchor", "count"),
    lower("radio.rounds_churn", "count"),
    higher("radio.steady_frac", "frac"),
    higher("radio.sharded_rounds", "count"),
    higher("radio.receptions", "count"),
    lower("radio.collisions", "count"),
    lower("cha.deliver_s", "s"),
    lower("cha.checker_s", "s"),
    higher("cha.outputs_checked", "count"),
    higher("cha.decided_frac", "frac"),
    lower("cha.safety_violations", "count"),
    lower("vi.step_round_s", "s"),
    lower("vi.world_totals_s", "s"),
    lower("vi.vround_us_p50", "us"),
    lower("vi.vround_us_p90", "us"),
    higher("vi.vn_decided_frac", "frac"),
    higher("vi.vn_joins", "count"),
    lower("vi.vn_resets", "count"),
    lower("traffic.driver_s", "s"),
    lower("traffic.submit_s", "s"),
    higher("traffic.issued", "count"),
    higher("traffic.completed", "count"),
    lower("traffic.timed_out", "count"),
    higher("traffic.clients_served_frac", "frac"),
    lower("traffic.latency_vr_p50", "vr"),
    lower("traffic.latency_vr_p95", "vr"),
    lower("audit.check_s", "s"),
    higher("audit.ops", "count"),
    lower("audit.info_ops", "count"),
    higher("audit.ops_per_s", "1/s"),
    lower("audit.not_pass", "count"),
    lower("unaccounted_frac", "frac"),
    lower("traced_verdict_s", "s"),
    lower("share.scenario", "frac"),
    lower("share.radio", "frac"),
    lower("share.cha", "frac"),
    lower("share.vi", "frac"),
    lower("share.traffic", "frac"),
    lower("share.audit", "frac"),
    lower("telemetry.overhead_frac", "frac"),
];

/// The declaration of `name` in either list.
pub fn lookup(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .copied()
}

/// Whether `name` is a legal metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
