//! The shape of a counted quantity across a ladder of input sizes.

/// Least-squares slope of `ln y` against `ln x` over the rungs
/// `points`: the exponent `e` of a count that grows as `x^e`. Needs at
/// least three rungs, every coordinate positive.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 3, "an exponent needs three rungs or more");
    assert!(
        points.iter().all(|&(x, y)| x > 0.0 && y > 0.0),
        "a log-log fit needs positive rungs: {points:?}"
    );
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let (sx, sy) = logs
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
    let (sxx, sxy) = (logs.iter()).fold((0.0, 0.0), |(a, b), &(x, y)| (a + x * x, b + x * y));
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}
