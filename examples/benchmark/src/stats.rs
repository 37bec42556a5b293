//! Estimators, process memory readings and the hand-rolled result JSON.

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Nearest-rank quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `numerator ÷ denominator`, 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted_best_first(values: &[f64], better: Better) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    sorted
}

/// The fast-side estimator over per-repeat values: the second-best of three
/// or more, the best of fewer.  Interference from the host only ever slows a
/// repeat, so the fast side is the steady one; the very best is left out
/// because it is the value a lucky repeat produces.
pub fn second_best(values: &[f64], better: Better) -> f64 {
    let sorted = sorted_best_first(values, better);
    match sorted.len() {
        0 => 0.0,
        1 | 2 => sorted[0],
        _ => sorted[1],
    }
}

/// Position-wise [`second_best`] across repeats.  Every repeat performs the
/// same operations on the same data in the same order, so operation `i` of
/// one repeat is operation `i` of the others; taking the fast side per
/// operation keeps a burst of interference in one repeat out of the result
/// unless it hits the same operation in all but one of them.
pub fn denoised(rows: &[&[f64]]) -> Vec<f64> {
    let len = rows.iter().map(|r| r.len()).min().unwrap_or(0);
    let mut column = Vec::with_capacity(rows.len());
    (0..len)
        .map(|i| {
            column.clear();
            column.extend(rows.iter().map(|r| r[i]));
            second_best(&column, Better::Lower)
        })
        .collect()
}

/// Distance from the best to the median repeat, as a share of the median.
pub fn best_to_median_spread(values: &[f64], better: Better) -> f64 {
    let sorted = sorted_best_first(values, better);
    if sorted.is_empty() {
        return 0.0;
    }
    let median = sorted[sorted.len() / 2];
    if median == 0.0 {
        0.0
    } else {
        (median - sorted[0]).abs() / median.abs()
    }
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (exclusive method), which is what the acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let m = x.len();
    if m < 2 {
        let v = x.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    out
}

/// A `Vm*` line of `/proc/self/status`, in MB (0 where the file is absent).
pub fn vm_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The one-line result object the benchmark contract asks for.  Metric names
/// are fixed identifiers (letters, digits, `_`, `.`, `-`), so nothing needs
/// escaping.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        debug_assert!(m
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Reads back `(name, value)` pairs from a line [`result_json`] wrote, plus
/// its `correct` flag.  Only this program's own output is ever parsed.
pub fn parse_result_json(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for part in body.split("\"unit\"") {
        let Some((head, value)) = part.rsplit_once("\": {\"value\": ") else {
            continue;
        };
        let name = head.rsplit_once('"')?.1;
        let value = value.trim_end_matches([',', ' ']).parse().ok()?;
        out.push((name.to_string(), value));
    }
    Some((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn second_best_takes_the_fast_side() {
        assert_eq!(second_best(&[5.0, 3.0, 4.0, 9.0], Better::Lower), 4.0);
        assert_eq!(second_best(&[5.0, 3.0, 4.0, 9.0], Better::Higher), 5.0);
        assert_eq!(second_best(&[5.0, 3.0], Better::Lower), 3.0);
    }

    #[test]
    fn result_json_round_trips() {
        let metrics = vec![
            Metric::new("setup_s", "s", 1.25),
            Metric::new("query.p50_us", "us", 0.000123),
        ];
        let line = result_json(true, 10, 0, &metrics);
        let (correct, parsed) = parse_result_json(&line).unwrap();
        assert!(correct);
        assert_eq!(
            parsed,
            vec![
                ("setup_s".to_string(), 1.25),
                ("query.p50_us".to_string(), 0.000123)
            ]
        );
    }
}
