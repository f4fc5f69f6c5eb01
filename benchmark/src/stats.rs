//! Order statistics over samples.

/// The `q` quantile (0..=1) by linear interpolation between the
/// closest ranks; NaN for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; NaN for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Geometric mean of positive samples; NaN for no samples.
pub fn geomean(samples: &[f64]) -> f64 {
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}
