//! The benchmark's own arithmetic: quantiles, the tail-percentile rule,
//! metric-name validation and the JSON result line.

/// Samples a tail quantile must leave beyond it before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// Percentiles the tail may be reported at, lowest first. A fixed
/// ladder keeps the reported percentile the same from run to run while
/// the sample count moves a little. On a workload of a few inputs that
/// weigh the same, a percentile on the edge between two inputs' samples
/// reads the extreme sample of one of them; p85 gives the 16-input
/// `spike_heavy` and the 24-input `generated_500` a tail inside one
/// input's samples, where p75 sits on such an edge.
const TAIL_LADDER: [f64; 8] = [50.0, 75.0, 85.0, 90.0, 95.0, 99.0, 99.5, 99.9];

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty population");
    sorted[rank_index(sorted.len(), p)]
}

fn rank_index(n: usize, p: f64) -> usize {
    // Integer arithmetic in tenths of a percent, so that 99.9% of
    // 10,000 is exactly rank 9,990.
    let tenths = (p * 10.0).round() as usize;
    let rank = (tenths * n).div_ceil(1000);
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank_index(n, p)
}

/// The highest ladder percentile that leaves at least [`TAIL_BEYOND`]
/// samples beyond it in a population of `n`, or `None` when `n` is too
/// small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && beyond(n, p) >= TAIL_BEYOND)
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty population");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency population summarised by the benchmark's rules.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported, chosen from `tail_floor_n`.
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
    /// Samples beyond `tail` in this population.
    pub tail_beyond: usize,
}

/// Summarises `samples`. The tail percentile is chosen for a population
/// of `tail_floor_n` samples — the least the workload guarantees — so
/// that every run reports the same percentile; `None` when even
/// `samples.len()` leaves too few samples beyond any ladder percentile.
pub fn summarize(samples: &[f64], tail_floor_n: usize) -> Option<Summary> {
    let n = samples.len();
    let tail_p = tail_percentile(tail_floor_n.min(n))?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n,
        p50: median(&sorted),
        tail_p,
        tail: percentile_sorted(&sorted, tail_p),
        tail_beyond: beyond(n, tail_p),
    })
}

/// A metric name: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Values print with all their digits.
///
/// # Panics
/// On an invalid metric name or unit, a non-finite value, or a name
/// used twice — all bugs in the benchmark itself.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = Vec::with_capacity(metrics.len());
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_metric_name(&m.name), "bad metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "bad unit {:?} for {}", m.unit, m.name);
        assert!(m.value.is_finite(), "{} is not finite: {}", m.name, m.value);
        assert!(
            metrics[..i].iter().all(|o| o.name != m.name),
            "metric {} reported twice",
            m.name
        );
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// FNV-1a 64 over a stream of byte strings, used for the per-workload
/// schedule digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn value(self) -> u64 {
        self.0
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        // 11 samples: the median leaves 5 beyond, so nothing qualifies.
        assert_eq!(tail_percentile(11), None);
        // 20 samples: p50 is the 10th, 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(66), Some(75.0));
        // 67 samples: p85 is the 57th, 10 beyond.
        assert_eq!(tail_percentile(67), Some(85.0));
        assert_eq!(tail_percentile(99), Some(85.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= TAIL_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn summary_uses_the_floor_population_for_the_percentile() {
        let s = summarize(&ramp(150), 100).expect("enough samples");
        assert_eq!(
            (s.n, s.tail_p, s.tail, s.tail_beyond),
            (150, 90.0, 135.0, 15)
        );
        // With the whole population as floor the percentile may rise.
        let s = summarize(&ramp(250), 250).expect("enough samples");
        assert_eq!((s.tail_p, s.tail, s.tail_beyond), (95.0, 238.0, 12));
        // A floor above the actual count falls back to the count.
        let s = summarize(&ramp(40), 1000).expect("enough samples");
        assert_eq!(s.tail_p, 75.0);
        assert!(summarize(&ramp(15), 15).is_none());
    }

    #[test]
    fn metric_names_and_units_follow_the_charset() {
        for ok in [
            "latency_p50_ms",
            "spec.parse_ms",
            "server.class_p50_ms.fresh",
            "9a",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "lat%",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        for ok in [
            "ms",
            "s",
            "1/s",
            "count",
            "%",
            "MiB",
            "model-s",
            "failed/attempted",
        ] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "a".repeat(17).as_str(), "ms,"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_full_digits() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric::new("latency_p50_ms", 1.203_456_789, "ms"),
                Metric::new("setup_s", 0.5, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn result_line_rejects_duplicate_names() {
        let m = Metric::new("a", 1.0, "ms");
        result_line(true, 1, 0, &[m.clone(), m]);
    }

    #[test]
    fn digest_separates_items() {
        let mut a = Digest::default();
        a.update(b"ab");
        a.update(b"c");
        let mut b = Digest::default();
        b.update(b"a");
        b.update(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}
