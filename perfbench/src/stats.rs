//! Small, pure helpers: percentiles, metric-name validation, spans and
//! self-time arithmetic. Everything here is covered by unit tests.

/// Percentiles the tail rule may report, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// How many of `n` samples lie strictly above the nearest-rank `p`-th
/// percentile.
pub fn samples_above(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank position (1-based) of the `p`-th percentile of `n`
/// samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products such as 99.9% of 10 000 from
    // rounding up a rank through floating-point error.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest candidate percentile that has at least ten samples above
/// it, or `None` when even the median does not (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && samples_above(n, p) >= 10)
}

/// Nearest-rank `p`-th percentile of `values` (sorted internally);
/// `None` when `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Whether `name` is a valid metric name: 1 to 64 characters of ASCII
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One timed interval of the traced pass. Spans of one simulation run
/// share `id` (the run's index in the campaign); `parent` names the
/// enclosing layer of the same run, `None` for a root span. Times are
/// nanoseconds since the pass started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Run index.
    pub id: usize,
    /// Layer name, e.g. `sim.step`.
    pub layer: &'static str,
    /// Enclosing layer, if any.
    pub parent: Option<&'static str>,
    /// Start, ns since the pass started.
    pub start: u64,
    /// End, ns since the pass started.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`,
/// each clipped to that interval (overlapping children count once).
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of `span`: its duration minus what its child spans (same
/// run, `parent == span.layer`) cover, minus `inner_ns` — time measured
/// inside the span by per-call counters rather than spans (defense hooks,
/// trace generation). Never negative.
pub fn self_time(span: &Span, spans: &[Span], inner_ns: u64) -> u64 {
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.id == span.id && s.parent == Some(span.layer))
        .map(|s| (s.start, s.end))
        .collect();
    span.duration()
        .saturating_sub(covered(span.start, span.end, &children))
        .saturating_sub(inner_ns)
}

/// 48-bit FNV-1a digest (exactly representable as a JSON number).
pub fn digest48(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &byte in *part {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash & ((1 << 48) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_samples_above() {
        // 144 samples: 14 above p90, 7 above p95.
        assert_eq!(samples_above(144, 90.0), 14);
        assert_eq!(samples_above(144, 95.0), 7);
        assert_eq!(tail_percentile(144), Some(90.0));
        // Exactly ten above p90 qualifies; nine does not.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0], 90.0), Some(3.0));
        assert_eq!(percentile(&[], 90.0), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "runs_per_s",
            "defense.blockhammer.vetoes",
            "model.ws.para.no-attack",
            "9a",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "ä", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    fn span(layer: &'static str, parent: Option<&'static str>, start: u64, end: u64) -> Span {
        Span {
            id: 0,
            layer,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips_to_the_parent() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (30, 40)]), 20);
        // Overlapping children count once.
        assert_eq!(covered(0, 100, &[(10, 30), (20, 40)]), 30);
        // Nested child inside another.
        assert_eq!(covered(0, 100, &[(10, 50), (20, 30)]), 40);
        // Clipped to the parent interval.
        assert_eq!(covered(10, 20, &[(0, 15), (18, 40)]), 7);
        // Entirely outside.
        assert_eq!(covered(10, 20, &[(30, 40)]), 0);
    }

    #[test]
    fn self_time_subtracts_children_and_inner_counters() {
        let spans = vec![
            span("run", None, 0, 1_000),
            span("sim.build", Some("run"), 0, 200),
            span("defense.build", Some("sim.build"), 50, 150),
            span("sim.step", Some("run"), 200, 1_000),
        ];
        // run: 1000 - (200 + 800) = 0.
        assert_eq!(self_time(&spans[0], &spans, 0), 0);
        // sim.build: 200 - 100 (defense.build) = 100.
        assert_eq!(self_time(&spans[1], &spans, 0), 100);
        // sim.step: 800 minus 300 ns of hook time measured by counters.
        assert_eq!(self_time(&spans[3], &spans, 300), 500);
        // Never negative.
        assert_eq!(self_time(&spans[3], &spans, 5_000), 0);
        // Spans of another run are not children.
        let mut other = spans.clone();
        other.push(Span {
            id: 1,
            ..span("defense.build", Some("sim.build"), 0, 200)
        });
        assert_eq!(self_time(&other[1], &other, 0), 100);
    }

    #[test]
    fn digest_fits_in_48_bits_and_sees_every_part() {
        let a = digest48(&[b"ab", b"c"]);
        assert!(a < 1 << 48);
        assert_ne!(a, digest48(&[b"ab", b"d"]));
        assert_eq!(a, digest48(&[b"abc"]));
    }
}
