//! Measurement utilities: wall-clock timing, log-log slope fitting, and
//! aligned table printing.

use anyk_obs::{global_clock, Clock as _};
use std::fmt::Write as _;

/// Time a closure once, returning `(result, seconds)`.
pub fn time<T, F: FnOnce() -> T>(f: F) -> (T, f64) {
    let start = global_clock().now_ns();
    let out = f();
    let end = global_clock().now_ns();
    (out, end.saturating_sub(start) as f64 / 1e9)
}

/// Time a closure, repeating until `min_total` seconds have elapsed
/// (at least once), returning the mean seconds per run. For fast
/// operations; slow operations run once.
pub fn time_stable<F: FnMut()>(mut f: F, min_total: f64) -> f64 {
    let mut runs = 0u32;
    let start = global_clock().now_ns();
    loop {
        f();
        runs += 1;
        let elapsed = global_clock().now_ns().saturating_sub(start) as f64 / 1e9;
        if elapsed >= min_total || runs >= 25 {
            return elapsed / runs as f64;
        }
    }
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

/// A hand-rolled JSON value — enough for machine-readable bench
/// artifacts without pulling serde into the offline build. Object keys
/// keep insertion order so emitted files diff cleanly run-to-run.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Num(f64),
    Int(u64),
    Str(String),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<S: Into<String>, I: IntoIterator<Item = (S, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Append a key to an object (panics on non-objects — builder
    /// misuse, not data).
    pub fn push<S: Into<String>>(&mut self, key: S, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value)),
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    // JSON has no NaN/inf; null keeps the file parseable.
                    out.push_str("null");
                }
            }
            Json::Int(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    let _ = write!(out, "{:?}: ", k);
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

/// Where bench JSON artifacts land: `$ANYK_BENCH_JSON_DIR` if set,
/// else the current directory. Returns the full path written.
pub fn write_bench_json(file_name: &str, doc: &Json) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var_os("ANYK_BENCH_JSON_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file_name);
    std::fs::write(&path, doc.render())?;
    println!("wrote {}", path.display());
    Ok(path)
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

    #[test]
    fn json_renders_nested_values() {
        let mut doc = Json::obj([
            ("experiment", Json::Str("E14".to_string())),
            ("scale", Json::Num(1.5)),
            ("ok", Json::Bool(true)),
        ]);
        doc.push(
            "rows",
            Json::Arr(vec![Json::Int(1), Json::Int(2), Json::Int(3)]),
        );
        let text = doc.render();
        assert!(text.contains("\"experiment\": \"E14\""));
        assert!(text.contains("\"scale\": 1.5"));
        assert!(text.contains("\"ok\": true"));
        assert!(text.ends_with("}\n"));
        // Balanced brackets, roughly: same number of open and close.
        assert_eq!(text.matches('{').count(), text.matches('}').count(),);
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn json_escapes_strings_and_nan() {
        let doc = Json::obj([
            ("quote", Json::Str("a\"b\\c\nd".to_string())),
            ("nan", Json::Num(f64::NAN)),
        ]);
        let text = doc.render();
        assert!(text.contains("a\\\"b\\\\c\\nd"));
        assert!(text.contains("\"nan\": null"));
    }

    #[test]
    fn write_bench_json_lands_in_env_dir() {
        let dir = std::env::temp_dir().join(format!("anyk-bench-json-{}", std::process::id()));
        // Sidestep the env var to keep the test parallel-safe: pass the
        // directory through the variable the helper reads only when the
        // caller has not overridden it in the environment already.
        std::env::set_var("ANYK_BENCH_JSON_DIR", &dir);
        let doc = Json::obj([("x", Json::Int(7))]);
        let path = write_bench_json("BENCH_TEST.json", &doc).expect("write");
        std::env::remove_var("ANYK_BENCH_JSON_DIR");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("\"x\": 7"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
