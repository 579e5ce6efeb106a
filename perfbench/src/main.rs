//! `perfbench <setup|measure|trace> --workload W --seed N --seconds S
//! [--workers K]`
//!
//! * `setup` — cold time from process start to the first scenario's
//!   verdict, and the process's peak memory by then; then exit.
//! * `measure` — tracing off: a cold first repetition (the time to its
//!   first verdict is a set-up sample), then warm repetitions for `S`
//!   seconds; prints the time-based end-to-end metrics.
//! * `trace` — alternates untraced and traced repetitions for `S`
//!   seconds; prints the per-layer metrics and the share table.
//!
//! `setup` and `measure` divide every timing by the host speed factor
//! measured next to it ([`Calibration`]), so the end-to-end times read
//! as seconds on the reference host whatever phase the shared host is
//! in.
//!
//! Human-readable lines come first; the last line is one JSON object
//! that `run.py` reads. Exit code 2 means bad arguments or an invalid
//! spec.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use vi_perfbench::host::Calibration;
use vi_perfbench::layers::{trace_scenario, Split};
use vi_perfbench::metrics::{lookup, PER_LAYER};
use vi_perfbench::reps::{accounting, check_outcomes, run_rep, run_rep_between, Rep};
use vi_perfbench::stats::{digest, median, peak_rss_mb, tail_percentile};
use vi_perfbench::workloads::{workload, Workload, NAMES};
use vi_scenario::EngineTuning;

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    workers: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode (setup|measure|trace)")?;
    if !matches!(mode.as_str(), "setup" | "measure" | "trace") {
        return Err(format!("unknown mode {mode:?}"));
    }
    let mut args = Args {
        mode,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        workers: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--workers" => args.workers = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!("--seconds {} must be >= 0", args.seconds));
    }
    Ok(args)
}

/// Renders the final JSON line. Values print with every digit.
/// `extra` is appended verbatim after the four contract keys.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64)],
    extra: &str,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = lookup(name).map_or("", |m| m.unit);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}{extra}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    for spec in &w.specs {
        if let Err(e) = spec.validate() {
            eprintln!("perfbench: invalid spec {}: {e}", spec.name);
            return ExitCode::from(2);
        }
    }

    // Intra-round workers apply to engine scenarios only; the traffic
    // driver owns its engine and always resolves rounds sequentially.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let requested = args.workers.unwrap_or(nproc);
    let used = if w.engine {
        requested.clamp(1, nproc)
    } else {
        1
    };
    let tuning = EngineTuning::with_workers(used);
    println!(
        "host: nproc={nproc} workers_requested={requested} workers_used={used} seed={}",
        args.seed
    );
    if w.engine && used != requested {
        println!("note: {requested} intra-round workers clamped to available_parallelism={nproc}");
    }
    if !w.engine {
        println!("note: traffic scenarios resolve rounds sequentially; workers do not apply");
    }

    let window = Duration::from_secs_f64(args.seconds);
    let line = match args.mode.as_str() {
        "setup" => {
            let out = w.specs[0].run_with(w.seeds(args.seed)[0], tuning);
            let setup_raw_s = start.elapsed().as_secs_f64();
            let Some(rss) = peak_rss_mb() else {
                eprintln!("perfbench: peak RSS unavailable (no VmHWM in /proc/self/status)");
                return ExitCode::FAILURE;
            };
            // After the peak is read: the calibration's tables are the
            // benchmark's memory, not the program's.
            let setup_s = setup_raw_s / Calibration::new().factor();
            format!(
                "{{\"setup_s\": {setup_s:?}, \"peak_rss_mb\": {rss:?}, \"digest\": \"{:016x}\"}}",
                digest(&out)
            )
        }
        "measure" => measure(&w, args.seed, tuning, start, window),
        _ => trace(&w, args.seed, tuning, window),
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// Tracing off: one cold repetition, then warm ones for `window`.
fn measure(
    w: &Workload,
    seed: u64,
    tuning: EngineTuning,
    start: Instant,
    window: Duration,
) -> String {
    // The host's speed factor is taken after every scenario, so each
    // scenario lies between two factors; the first is built lazily,
    // after the cold first verdict.
    let mut cal: Option<Calibration> = None;
    let mut factors: Vec<f64> = Vec::new();
    let mut calibrate = || factors.push(cal.get_or_insert_with(Calibration::new).factor());
    let before = start.elapsed().as_secs_f64();
    let (cold, outs) = run_rep_between(w, seed, tuning, &mut calibrate);
    let t = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.is_empty() || t.elapsed() < window {
        reps.push(run_rep_between(w, seed, tuning, &mut calibrate).0);
    }
    let setup_raw_s = before + cold.scenario_secs[0];
    let setup_s = setup_raw_s / factors[0];

    let mut correct = true;
    for e in check_outcomes(w, &outs) {
        println!("CHECK FAILED: {e}");
        correct = false;
    }
    if let Some(r) = reps.iter().find(|r| r.digest != cold.digest) {
        println!(
            "CHECK FAILED: repetition digest {:016x} differs from the first {:016x}",
            r.digest, cold.digest
        );
        correct = false;
    }

    // Verdicts as they are, for the first scenario seed.
    for out in outs.iter().take(w.specs.len()) {
        let verdict = match (&out.audit, &out.traffic) {
            (Some(report), _) => report.verdict_summary(),
            (None, Some(t)) => format!(
                "unaudited; {} issued, {} completed, {} timed out",
                t.issued, t.completed, t.timed_out
            ),
            (None, None) => format!(
                "{} validity, {} agreement, {} spread violations in {} outputs checked",
                out.validity_violations,
                out.agreement_violations,
                out.spread_violations,
                out.outputs_checked
            ),
        };
        println!("verdict {}: {verdict}", out.scenario);
    }

    // Seed sensitivity: does the next run seed change what the first
    // scenario decides, or only how it got there?
    let next = w.seeds(seed.wrapping_add(1))[0];
    let other = w.specs[0].run_with(next, tuning);
    println!(
        "seed sensitivity, first scenario at seed {next}: outcome digest {}, op counts {}",
        if digest(&other) == digest(&outs[0]) {
            "same"
        } else {
            "changes"
        },
        if accounting(&other) == accounting(&outs[0]) {
            "same"
        } else {
            "change"
        },
    );

    // Each warm scenario's time over the geometric mean of the factors
    // around it; then, per scenario of the repetition, the median over
    // repetitions. A repetition's normalized time sums those medians.
    let slots = cold.scenario_secs.len();
    let warm_factors = &factors[slots - 1..];
    let normalized: Vec<Vec<f64>> = reps
        .iter()
        .enumerate()
        .map(|(i, r)| {
            r.scenario_secs
                .iter()
                .enumerate()
                .map(|(j, secs)| {
                    let k = i * slots + j;
                    secs / (warm_factors[k] * warm_factors[k + 1]).sqrt()
                })
                .collect()
        })
        .collect();
    let rep_s: f64 = (0..slots)
        .map(|j| median(&normalized.iter().map(|r| r[j]).collect::<Vec<_>>()))
        .sum();
    // Per seed's scenario set: a repetition runs `seeds_per_rep` of them.
    let verdict_s = rep_s / w.seeds_per_rep as f64;
    let metrics = [
        ("setup_s", setup_s),
        ("verdict_s", verdict_s),
        ("rounds_per_s", cold.rounds as f64 / rep_s),
        ("ops_per_s", cold.done as f64 / rep_s),
    ];
    // Every repetition decides the same (checked above), so the op
    // counts are one repetition's: a function of the seed, not of how
    // many repetitions the host's speed allowed.
    let (attempted, failed) = (cold.attempted, cold.failed);
    println!(
        "digest {:016x}; per repetition ({} seeds): {} rounds, {} ops attempted, {} failed, {} completed",
        cold.digest, w.seeds_per_rep, cold.rounds, cold.attempted, cold.failed, cold.done
    );
    for (name, value) in metrics {
        let unit = lookup(name).map_or("", |m| m.unit);
        println!("{name} = {value:.6} {unit}");
    }
    let n = reps.len();
    let secs: Vec<f64> = normalized.iter().map(|r| r.iter().sum()).collect();
    let mut sorted = secs.clone();
    sorted.sort_by(f64::total_cmp);
    let per_seed: Vec<String> = secs
        .iter()
        .map(|s| format!("{:.6}", s / w.seeds_per_rep as f64))
        .collect();
    println!("verdict_s samples (s): {}", per_seed.join(" "));
    let raw: Vec<f64> = reps.iter().map(|r| r.secs).collect();
    let mut sorted_factors = warm_factors.to_vec();
    sorted_factors.sort_by(f64::total_cmp);
    println!(
        "host speed factor: median {:.3}, range {:.3}-{:.3} over {} samples; raw wall times: setup {setup_raw_s:.6} s, verdict median {:.6} s",
        median(warm_factors),
        sorted_factors[0],
        sorted_factors[sorted_factors.len() - 1],
        sorted_factors.len(),
        median(&raw) / w.seeds_per_rep as f64,
    );
    match tail_percentile(n) {
        Some(p) => println!(
            "verdict_s: median of {n} warm repetitions; p{p} = {:.6} s",
            sorted[(n * p as usize).div_ceil(100) - 1] / w.seeds_per_rep as f64
        ),
        None => println!(
            "verdict_s: median of {n} warm repetitions; no tail percentile (needs >= 10 samples beyond it)"
        ),
    }
    println!("ops_attempted = {attempted} count");
    println!("ops_failed = {failed} count");
    // run.py compares the first scenario's digest with the set-up
    // processes'.
    let extra = format!(", \"digest\": \"{:016x}\"", digest(&outs[0]));
    result_json(correct, attempted, failed, &metrics, &extra)
}

/// Alternates untraced and traced repetitions for `window`.
fn trace(w: &Workload, seed: u64, tuning: EngineTuning, window: Duration) -> String {
    let (first, plain) = run_rep(w, seed, tuning);
    let mut correct = true;
    for e in check_outcomes(w, &plain) {
        println!("CHECK FAILED: {e}");
        correct = false;
    }
    let mut untraced: Vec<f64> = Vec::new();
    let mut splits: Vec<Split> = Vec::new();
    let t = Instant::now();
    while splits.is_empty() || t.elapsed() < window {
        let (rep, _) = run_rep(w, seed, tuning);
        if rep.digest != first.digest {
            println!("CHECK FAILED: untraced repetition digest differs from the first");
            correct = false;
        }
        untraced.push(rep.secs);
        let mut split = Split::default();
        let jobs = w
            .seeds(seed)
            .into_iter()
            .flat_map(|s| w.specs.iter().map(move |spec| (s, spec)));
        for ((s, spec), out) in jobs.zip(&plain) {
            if let Err(e) = trace_scenario(spec, s, tuning, out, &mut split) {
                println!("CHECK FAILED: {e}");
                correct = false;
            }
        }
        splits.push(split);
    }

    let traced_s = median(&splits.iter().map(|s| s.total_s).collect::<Vec<_>>());
    let overhead = traced_s / median(&untraced) - 1.0;
    let rows: Vec<Vec<(&'static str, f64)>> = splits.iter().map(Split::metrics).collect();
    let mut metrics: Vec<(&str, f64)> = PER_LAYER
        .iter()
        .map(|m| {
            let values: Vec<f64> = rows
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v))
                .collect();
            (m.name, median(&values))
        })
        .collect();
    if let Some(slot) = metrics
        .iter_mut()
        .find(|(n, _)| *n == "telemetry.overhead_frac")
    {
        slot.1 = overhead;
    }

    println!(
        "traced run of {}: {} traced / {} untraced repetitions",
        w.name,
        splits.len(),
        untraced.len()
    );
    println!("{:<12} {:>10}", "layer", "share");
    let layers = Split::default().shares().map(|(layer, _)| layer);
    for (i, layer) in layers.iter().enumerate() {
        let share = median(&splits.iter().map(|s| s.shares()[i].1).collect::<Vec<_>>());
        println!("{layer:<12} {:>9.2}%", share * 100.0);
        if *layer == "unaccounted" && share.abs() > 0.05 {
            println!(
                "FLAG: {} leaves {:.1}% of its traced time unaccounted (> 5%)",
                w.name,
                share * 100.0
            );
        }
    }
    println!(
        "{:<12} {:>9.2}%   (traced {traced_s:.6} s vs untraced {:.6} s)",
        "telemetry",
        overhead * 100.0,
        median(&untraced)
    );
    for (name, value) in &metrics {
        let unit = lookup(name).map_or("", |m| m.unit);
        println!("{name} = {value:.6} {unit}");
    }
    result_json(correct, first.attempted, first.failed, &metrics, "")
}
