//! Small numeric and reporting helpers shared by the modes.

use vi_scenario::ScenarioOutcome;

/// Median of `values` (mean of the middle pair for even lengths);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `values` (`0 < q <= 1`); `0` for an
/// empty slice.
pub fn quantile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest whole percentile with at least ten of `n` samples
/// beyond it, if that percentile lies above the median.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    let p = (100 * (n - 10) / n) as u32;
    (p > 50).then_some(p)
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of what a run decided: the serialized outcome with the
/// seed and every wall-clock or observer-only field cleared, so runs
/// of different seeds, and traced against untraced runs, compare by
/// their results alone.
pub fn digest(out: &ScenarioOutcome) -> u64 {
    let mut o = out.clone();
    o.seed = 0;
    o.telemetry = None;
    o.causal = None;
    o.incident = None;
    fnv1a(
        serde_json::to_string(&o)
            .expect("outcomes serialize")
            .as_bytes(),
    )
}

/// Folds per-scenario digests into one digest of a repetition.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests.into_iter().fold(0, |acc, d| {
        fnv1a(&[acc.to_le_bytes(), d.to_le_bytes()].concat())
    })
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&v, 0.5), 5);
        assert_eq!(quantile(&v, 0.9), 9);
        assert_eq!(quantile(&v, 1.0), 10);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), None);
        assert_eq!(tail_percentile(25), Some(60));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine([1, 2]), combine([2, 1]));
        assert_eq!(combine([1, 2]), combine([1, 2]));
    }
}
