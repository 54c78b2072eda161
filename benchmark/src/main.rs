use anykbench::compare::{aa, compare, find_bounds, print_rows, AaConfig, Verdict};
use anykbench::run::{run, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  anykbench [run] --workload W --seed N [--seconds S] [--trace 0|1] [--scale F]
                  [--rounds N] [--spans FILE] [--out FILE.jsonl]
  anykbench compare A.jsonl B.jsonl [--bounds BENCHMARK.json]
  anykbench aa [--sets N] [--runs N] [--seconds S] [--scale F] [--dir DIR] [--bounds BENCHMARK.json]
workloads: serve_pages drain_deep cold_cyclic live_writes";

fn parse_run(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        scale: 1.0,
        trace: false,
        rounds: None,
        spans: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--scale" => cfg.scale = value.parse().map_err(|_| bad())?,
            "--rounds" => cfg.rounds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => cfg.trace = value == "1",
            "--spans" => cfg.spans = Some(value.into()),
            "--out" => cfg.out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cfg.scale > 0.0 && cfg.scale <= 1.0 && cfg.seconds >= 0.0) {
        return Err("--scale must be in (0, 1] and --seconds non-negative".to_string());
    }
    Ok(cfg)
}

/// `--flag value` pairs after the positional arguments.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    args.chunks(2)
        .map(|pair| match pair {
            [flag, value] if flag.starts_with("--") => Ok((flag.as_str(), value.as_str())),
            _ => Err(format!("expected --flag value, got {pair:?}")),
        })
        .collect()
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a, b, rest @ ..] = args else {
        return Err(USAGE.to_string());
    };
    let mut bounds = None;
    for (flag, value) in flags(rest)? {
        match flag {
            "--bounds" => bounds = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let bounds = find_bounds(bounds)?;
    let rows = compare(a.as_ref(), b.as_ref(), &bounds)?;
    print_rows(&rows, &bounds);
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

fn run_aa(args: &[String]) -> Result<bool, String> {
    let mut cfg = AaConfig {
        sets: 2,
        runs: 5,
        seconds: 30.0,
        scale: 1.0,
        dir: PathBuf::from("."),
        bounds: None,
    };
    for (flag, value) in flags(args)? {
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag {
            "--sets" => cfg.sets = value.parse().map_err(|_| bad())?,
            "--runs" => cfg.runs = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--scale" => cfg.scale = value.parse().map_err(|_| bad())?,
            "--dir" => cfg.dir = value.into(),
            "--bounds" => cfg.bounds = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(2..=26).contains(&cfg.sets) || cfg.runs == 0 {
        return Err("--sets must be 2..=26 and --runs at least 1".to_string());
    }
    aa(&cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => ("run", &args[..]),
        Some(cmd) => (cmd, &args[1..]),
        None => ("help", &args[..]),
    };
    let done = match cmd {
        "run" => parse_run(rest).and_then(|cfg| run(&cfg)).map(|outcome| {
            // The last line of standard output is the result object.
            println!("{}", outcome.result_line());
            outcome.correct
        }),
        "compare" => run_compare(rest),
        "aa" => run_aa(rest),
        _ => Err(USAGE.to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}
