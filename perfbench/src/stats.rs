//! Order statistics for host timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) exactly, so the spread a run prints is the
//! spread a reader recomputes from the same samples.

/// The median: the middle value, or the mean of the two middle values.
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile. One sample yields it three times;
/// `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    match len {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        // Negative when the clamp moved `j` up: extrapolates below v[0].
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the benchmark's bounds are judged against. `None` when there are
/// no samples or the median is zero.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
