//! `compare`: two sets of run records against the bounds in
//! `BENCHMARK.json`; `aa`: interleaved sets of the *same* binary, which
//! is how the bounds are set and how the benchmark shows it repeats.

use crate::json::Json;
use crate::stats::{iqr_ratio, quartiles};
use crate::workloads;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// `(better, bound)` per gated metric, from `BENCHMARK.json`.
pub struct Bounds(Vec<(String, bool, f64)>);

impl Bounds {
    pub fn load(path: &Path) -> Result<Bounds, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let gated = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .ok_or("no end_to_end list")?;
        gated
            .iter()
            .map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("better")?.as_str()? == "higher",
                    m.get("bound")?.as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .map(Bounds)
            .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
    }

    fn of(&self, metric: &str) -> Option<(bool, f64)> {
        self.0
            .iter()
            .find(|(n, _, _)| n == metric)
            .map(|(_, h, b)| (*h, *b))
    }
}

/// `workload -> metric -> values`, one value per run record in `path`.
type Sets = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(path: &Path) -> Result<Sets, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sets = Sets::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
        let rec = Json::parse(line).map_err(|e| bad(&e))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let metrics = rec
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("no metrics"))?;
        if rec.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(bad("the run was not correct; its numbers mean nothing"));
        }
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("metric without a value"))?;
            sets.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(sets)
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    /// The spread inside a set is wider than the bound: the pair cannot
    /// be told apart, which is not the same as unchanged.
    Unresolved,
    Worse,
    /// No bound: a per-layer metric, reported only.
    Ungated,
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Medians and quartiles per metric × workload, B's gap to A in the
/// "worse" direction, judged against the metric's bound.
pub fn compare(a: &Path, b: &Path, bounds: &Bounds) -> Result<Vec<Row>, String> {
    let (sa, sb) = (load_set(a)?, load_set(b)?);
    let mut rows = Vec::new();
    for (workload, metrics) in &sa {
        for (metric, va) in metrics {
            let Some(vb) = sb.get(workload).and_then(|m| m.get(metric)) else {
                continue;
            };
            let one = |v: &[f64]| quartiles(v).unwrap_or((v[0], v[0], v[0]));
            let (qa, qb) = (one(va), one(vb));
            let gap = (qb.1 - qa.1) / qa.1.abs().max(f64::MIN_POSITIVE);
            let spread = iqr_ratio(va).max(iqr_ratio(vb));
            let (worse_by, verdict) = match bounds.of(metric) {
                None => (gap, Verdict::Ungated),
                Some((higher_is_better, bound)) => {
                    let worse_by = if higher_is_better { -gap } else { gap };
                    let verdict = if worse_by > bound {
                        Verdict::Worse
                    } else if spread > bound {
                        Verdict::Unresolved
                    } else {
                        Verdict::Ok
                    };
                    (worse_by, verdict)
                }
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a: qa,
                b: qb,
                worse_by,
                spread,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row], bounds: &Bounds) {
    println!(
        "{:<12} {:<34} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "spread", "bound"
    );
    for r in rows {
        let bound = bounds
            .of(&r.metric)
            .map_or("-".to_string(), |(_, b)| format!("{:.1}%", b * 100.0));
        println!(
            "{:<12} {:<34} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>7}  {}",
            r.workload,
            r.metric,
            r.a.1,
            r.b.1,
            r.worse_by * 100.0,
            r.spread * 100.0,
            bound,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved (spread > bound)",
                Verdict::Worse => "WORSE beyond the bound",
                Verdict::Ungated => "",
            }
        );
    }
}

/// `BENCHMARK.json` as given, else in the working directory, else one
/// level up (the package directory is one below the repository root).
pub fn find_bounds(given: Option<PathBuf>) -> Result<Bounds, String> {
    let candidates = match given {
        Some(p) => vec![p],
        None => vec!["BENCHMARK.json".into(), "../BENCHMARK.json".into()],
    };
    let found = candidates
        .iter()
        .find(|p| p.is_file())
        .ok_or("BENCHMARK.json not found; pass --bounds")?;
    Bounds::load(found)
}

pub struct AaConfig {
    pub sets: usize,
    pub runs: usize,
    pub seconds: f64,
    pub scale: f64,
    pub dir: PathBuf,
    pub bounds: Option<PathBuf>,
}

/// Run `sets` interleaved sets of `runs` runs per workload of this very
/// binary (run `i` of every set uses seed `i + 1`), then compare each
/// consecutive pair of sets. `Ok(true)` when no pair is worse than a
/// bound or unresolved.
pub fn aa(cfg: &AaConfig) -> Result<bool, String> {
    let bounds = find_bounds(cfg.bounds.clone())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("{}: {e}", cfg.dir.display()))?;
    let file = |set: usize| {
        cfg.dir
            .join(format!("aa-set{}.jsonl", (b'A' + set as u8) as char))
    };
    for set in 0..cfg.sets {
        // Start every set from an empty file: records are appended.
        match std::fs::remove_file(file(set)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.to_string()),
            _ => {}
        }
    }
    for run in 0..cfg.runs {
        for set in 0..cfg.sets {
            for workload in workloads::NAMES {
                eprintln!(
                    "aa: run {}/{} set {} {workload}",
                    run + 1,
                    cfg.runs,
                    set + 1
                );
                let status = Command::new(&exe)
                    .args(["run", "--workload", workload, "--trace", "0"])
                    .args(["--seed", &(run + 1).to_string()])
                    .args(["--seconds", &cfg.seconds.to_string()])
                    .args(["--scale", &cfg.scale.to_string()])
                    .arg("--out")
                    .arg(file(set))
                    .stdout(Stdio::null())
                    .status()
                    .map_err(|e| e.to_string())?;
                if !status.success() {
                    return Err(format!("{workload} seed {} failed: {status}", run + 1));
                }
            }
        }
    }
    let mut pass = true;
    for set in 1..cfg.sets {
        println!("== {} vs {}", file(set - 1).display(), file(set).display());
        let rows = compare(&file(set - 1), &file(set), &bounds)?;
        print_rows(&rows, &bounds);
        pass &= rows
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Ok | Verdict::Ungated));
    }
    println!(
        "aa: {}",
        if pass {
            "every pair within its bound"
        } else {
            "NOT within the bounds"
        }
    );
    Ok(pass)
}
