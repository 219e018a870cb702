//! Order statistics over latency samples.

/// Sort in place and return the `p`-quantile (0..=1), interpolating
/// linearly between the two nearest ranks. Empty input gives 0.
pub fn quantile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    quantile_sorted(samples, p)
}

pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(mut samples: Vec<f64>) -> f64 {
    quantile(&mut samples, 0.5)
}

/// `num / den`, 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
