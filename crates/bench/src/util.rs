//! Measurement utilities: wall-clock timing, log-log slope fitting, and
//! aligned table printing.

use anyk_obs::{global_clock, Clock as _};

/// Time a closure once, returning `(result, seconds)`.
pub fn time<T, F: FnOnce() -> T>(f: F) -> (T, f64) {
    let start = global_clock().now_ns();
    let out = f();
    let end = global_clock().now_ns();
    (out, end.saturating_sub(start) as f64 / 1e9)
}

/// Median and median absolute deviation of `samples` (sorted in place).
pub fn median_mad(samples: &mut [f64]) -> (f64, f64) {
    fn median(xs: &mut [f64]) -> f64 {
        xs.sort_by(f64::total_cmp);
        let mid = xs.len() / 2;
        match xs.len() % 2 {
            0 => (xs[mid - 1] + xs[mid]) / 2.0,
            _ => xs[mid],
        }
    }
    let med = median(samples);
    let mut dev: Vec<f64> = samples.iter().map(|x| (x - med).abs()).collect();
    (med, median(&mut dev))
}

/// Least-squares slope of `ln(y)` against `ln(x)` — the empirical
/// scaling exponent. Points with non-positive coordinates are skipped.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// A simple aligned text table that also emits CSV.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Render aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render CSV.
    pub fn csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Print the text table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format seconds human-readably (µs/ms/s).
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

/// Print an experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("\n=== {id} ===");
    println!("paper claim: {claim}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_quadratic() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slope_of_linear() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((loglog_slope(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(["a", "bb"]);
        t.row(["1", "2"]);
        let text = t.render();
        assert!(text.contains("a"));
        assert!(text.contains("bb"));
        assert_eq!(t.csv(), "a,bb\n1,2\n");
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(0.0000005).contains("µs"));
        assert!(fmt_secs(0.005).contains("ms"));
        assert!(fmt_secs(2.0).contains('s'));
    }

    #[test]
    fn time_returns_result() {
        let (x, t) = time(|| 42);
        assert_eq!(x, 42);
        assert!(t >= 0.0);
    }
}
