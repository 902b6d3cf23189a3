//! Order statistics over per-job samples, and the per-packet unit every
//! metric of this benchmark is normalised to.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
/// On an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A tail percentile with its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Which percentile it is: the share of samples at or below it, in %.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
}

/// The highest percentile that still has at least [`MIN_BEYOND`] samples
/// beyond it: rank `n - MIN_BEYOND` (1-based) of the sorted samples.
/// `None` with [`MIN_BEYOND`] samples or fewer, where no percentile
/// qualifies.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = n - MIN_BEYOND;
    Some(Tail {
        value: sorted(xs)[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        beyond: n - rank,
    })
}

/// Nanoseconds per data packet sent.
///
/// # Panics
/// When `pkts` is zero: a workload that sent nothing has no per-packet
/// cost, and every workload here sends.
pub fn ns_per_pkt(secs: f64, pkts: u64) -> f64 {
    assert!(pkts > 0, "per-packet figure over zero packets");
    secs * 1e9 / pkts as f64
}

/// Data packets per second.
pub fn pkts_per_s(pkts: u64, secs: f64) -> f64 {
    pkts as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 11 samples: only the lowest has ten beyond it.
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&xs).expect("11 samples qualify");
        assert_eq!((t.value, t.samples, t.beyond), (1.0, 11, 10));
        // 100 samples: the 90th percentile, whatever the input order.
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        let t = tail(&xs).expect("100 samples qualify");
        assert_eq!((t.value, t.percentile, t.beyond), (90.0, 90.0, 10));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
    }

    #[test]
    fn per_packet_units() {
        assert_eq!(ns_per_pkt(1.5, 3_000_000), 500.0);
        assert_eq!(pkts_per_s(3_000_000, 1.5), 2_000_000.0);
    }
}
