//! The runner: fixed-work rounds.
//!
//! A workload is a seeded, pre-generated operation list. A round
//! executes the whole list from an identical starting state, so a round
//! is the same work every time and on every commit. The gated figures
//! are read in the quiet twentieth of the rounds (see [`quiet`]), and the
//! time budget is honoured only at round boundaries.

use crate::alloc;
use crate::harness::{host_mem_ns, host_ref_us, OpSample, Ready, Rec, Workload};
use crate::json::Json;
use crate::layers;
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::stats::{iqr_ratio, median, percentile};
use crate::workloads;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Cold set-ups timed per run: at least `MIN_SETUPS`, then more until
/// `SETUP_BUDGET_S` is spent, `MAX_SETUPS` at most.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 400;
const SETUP_BUDGET_S: f64 = 2.0;
/// Timed rounds a measured run never goes below.
const MIN_ROUNDS: usize = 15;
/// The share of a run's rounds (and of its set-ups) the gated metrics
/// are computed over: the fastest twentieth. See [`quiet`].
const QUIET_SHARE: f64 = 0.05;
/// The CPU sentinel is timed once per this many rounds.
const HOST_REF_EVERY: usize = 25;
/// Untraced and traced rounds of a traced run, alternating.
const TRACE_ROUNDS: usize = 20;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Shrinks data and rounds; 1.0 is what `BENCHMARK.json` gates.
    pub scale: f64,
    pub trace: bool,
    /// Run exactly this many timed rounds, whatever `seconds` says.
    pub rounds: Option<usize>,
    /// Write the spans of a traced run here, as JSON lines.
    pub spans: Option<PathBuf>,
    /// Append the run's full record here, as one JSON line.
    pub out: Option<PathBuf>,
}

/// What a run produced: the full record and the verdict.
pub struct Outcome {
    pub record: Json,
    pub correct: bool,
    pub failed: u64,
}

impl Outcome {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let pick = |k: &str| {
            (
                k.to_string(),
                self.record.get(k).cloned().unwrap_or(Json::Null),
            )
        };
        Json::Obj(
            ["correct", "attempted", "failed", "metrics"]
                .map(pick)
                .to_vec(),
        )
        .to_string()
    }
}

/// The metric values of one run and its failure accounting.
struct Measured {
    values: layers::Values,
    attempted: u64,
    failed: u64,
}

/// One executed round: its wall time net of the harness's own checks,
/// and what it observed.
struct Round {
    wall_s: f64,
    rec: Rec,
}

impl Round {
    fn rate(&self) -> f64 {
        self.rec.answers as f64 / self.wall_s
    }

    /// Heap bytes this round's samples hold: the harness's own share of
    /// the live heap, which grows with the number of rounds.
    fn heap_bytes(&self) -> usize {
        self.rec.ops.capacity() * std::mem::size_of::<OpSample>()
    }
}

fn timed_round(ready: &mut dyn Ready, mut rec: Rec) -> Round {
    let t = Instant::now();
    ready.round(&mut rec);
    Round {
        wall_s: t.elapsed().as_secs_f64() - rec.untimed_ns as f64 / 1e9,
        rec,
    }
}

/// The quiet twentieth of `items`: the `QUIET_SHARE` of them with the
/// smallest `key`, at least one.
///
/// Every round is the same work, so what makes one round slower than
/// another is the host, not the program — and on a shared host the
/// disturbance only ever adds time, in episodes that last from a round
/// to minutes (see the README). A median over all rounds sits inside
/// those episodes half of the time they cover; the fastest twentieth is
/// what the run did whenever the host let it. (A tenth was tried first;
/// the narrower share leaves fewer slow runs: see the README.)
fn quiet<T>(items: &[T], key: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut by_key: Vec<&T> = items.iter().collect();
    by_key.sort_by(|a, b| key(a).total_cmp(&key(b)));
    by_key.truncate(((items.len() as f64 * QUIET_SHARE).ceil() as usize).max(1));
    by_key
}

/// `field` of every op, in µs.
fn us(ops: &[OpSample], field: fn(&OpSample) -> u64) -> Vec<f64> {
    ops.iter().map(|o| field(o) as f64 / 1e3).collect()
}

/// The per-class medians of `field`, µs, for every class with a sample.
fn class_p50s(ops: &[OpSample], field: fn(&OpSample) -> u64) -> Vec<(u16, usize, f64)> {
    let classes = ops.iter().map(|o| o.class).max().map_or(0, |c| c + 1);
    (0..classes)
        .filter_map(|class| {
            let of: Vec<OpSample> = ops.iter().filter(|o| o.class == class).copied().collect();
            (!of.is_empty()).then(|| (class, of.len(), median(&us(&of, field))))
        })
        .collect()
}

/// A workload's latency: the median per op class (query shape ×
/// ranking), combined by geometric mean. A median pooled over classes
/// whose latencies differ by 5× sits on the boundary between two of
/// them and jumps from one to the other between runs; this moves by
/// x % when any one class moves by x % × its share.
fn latency_us(ops: &[OpSample], field: fn(&OpSample) -> u64) -> f64 {
    let per_class = class_p50s(ops, field);
    let log_sum: f64 = per_class.iter().map(|(_, _, p50)| p50.ln()).sum();
    (log_sum / per_class.len().max(1) as f64).exp()
}

fn pooled_ops<'a>(rounds: impl IntoIterator<Item = &'a Round>) -> Vec<OpSample> {
    rounds
        .into_iter()
        .flat_map(|r| r.rec.ops.iter().copied())
        .collect()
}

fn meta(cfg: &Config, w: &dyn Workload) -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", Json::str(w.name())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("scale", Json::Num(cfg.scale)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("k", Json::Num(w.k() as f64)),
        ("git_commit", Json::str(env!("ANYKBENCH_GIT"))),
        ("rustc", Json::str(env!("ANYKBENCH_RUSTC"))),
        ("nproc", Json::Num(nproc as f64)),
        ("sizing", Json::str(w.sizing())),
    ]
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Timed rounds until the budget is spent, checked only between rounds.
fn measured(cfg: &Config, w: &dyn Workload, record: &mut Vec<(&'static str, Json)>) -> Measured {
    let time_setup = || {
        let t = Instant::now();
        let ready = w.setup();
        (ready, t.elapsed().as_secs_f64())
    };
    let (mut ready, first) = time_setup();
    let mut setup_s = vec![first];
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // The previous instance goes first: every set-up starts cold
        // and alone.
        drop(ready);
        let (next, took) = time_setup();
        ready = next;
        setup_s.push(took);
    }
    let mut host_mem = vec![host_mem_ns()];
    // One untimed warm-up round. (It also fixes the checksums later
    // rounds must reproduce.)
    timed_round(ready.as_mut(), Rec::default());
    let min_rounds = cfg
        .rounds
        .unwrap_or(if cfg.scale < 1.0 { 3 } else { MIN_ROUNDS });
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut held = 0;
    let mut host = vec![host_ref_us()];
    let mut peak = 0;
    loop {
        if w.fresh_each_round() {
            drop(ready);
            ready = w.setup();
        }
        // The peak is taken per round and net of the samples kept so
        // far, so `peak_heap_mb` does not grow with the number of
        // rounds the host fits into the budget.
        alloc::reset_peak();
        let round = timed_round(ready.as_mut(), Rec::default());
        peak = peak
            .max(alloc::snapshot().peak - held - rounds.capacity() * std::mem::size_of::<Round>());
        held += round.heap_bytes();
        rounds.push(round);
        if rounds.len().is_multiple_of(HOST_REF_EVERY) {
            host.push(host_ref_us());
        }
        if rounds.len() >= min_rounds && (cfg.rounds.is_some() || Instant::now() >= deadline) {
            break;
        }
    }
    host.push(host_ref_us());
    drop(ready);
    host_mem.push(host_mem_ns());

    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = rounds.iter().map(Round::rate).collect();
    let all_ops = pooled_ops(&rounds);
    let quiet_rounds = quiet(&rounds, |r| r.wall_s);
    let quiet_rates: Vec<f64> = quiet_rounds.iter().map(|r| r.rate()).collect();
    let quiet_ops = pooled_ops(quiet_rounds.iter().copied());
    let quiet_setups: Vec<f64> = quiet(&setup_s, |s| *s).into_iter().copied().collect();
    println!(
        "rounds: {} timed after 1 warm-up, {:.4} s median wall, per-round answers/s IQR/median \
         {:.4}; quiet twentieth: {} rounds, {:.4} s median wall, {} ops",
        walls.len(),
        median(&walls),
        iqr_ratio(&rates),
        quiet_rounds.len(),
        median(&quiet_rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        quiet_ops.len(),
    );
    println!(
        "set-ups: {} cold, {:.4} s median, {:.4} s median of the quiet twentieth",
        setup_s.len(),
        median(&setup_s),
        median(&quiet_setups),
    );
    println!(
        "host: host_ref_us {:.1} (min {:.1}, max {:.1}), host_mem_ns before {:.1}, after {:.1}",
        median(&host),
        host.iter().copied().fold(f64::MAX, f64::min),
        host.iter().copied().fold(0.0, f64::max),
        host_mem[0],
        host_mem[1],
    );
    println!(
        "over all rounds (reported, not gated): answers_per_s {:.1}, ttf_p50_us {:.1}, \
         ttk_p50_us {:.1}, ttf_p95_us {:.1}, ttk_p95_us {:.1}; peak_rss_mb {:.1}",
        median(&rates),
        latency_us(&all_ops, |o| o.ttf_ns),
        latency_us(&all_ops, |o| o.ttk_ns),
        percentile(&us(&all_ops, |o| o.ttf_ns), 0.95),
        percentile(&us(&all_ops, |o| o.ttk_ns), 0.95),
        alloc::peak_rss_mb()
    );
    for ((class, n, ttf), (_, _, ttk)) in class_p50s(&quiet_ops, |o| o.ttf_ns)
        .into_iter()
        .zip(class_p50s(&quiet_ops, |o| o.ttk_ns))
    {
        println!("  class {class}: {n} quiet ops, ttf_p50_us {ttf:.1}, ttk_p50_us {ttk:.1}");
    }
    record.push(("rounds", Json::Num(walls.len() as f64)));
    record.push(("round_wall_s", nums(&walls)));
    record.push(("round_iqr_ratio", Json::Num(iqr_ratio(&rates))));
    record.push(("host_ref_us", nums(&host)));
    record.push(("host_mem_ns", nums(&host_mem)));
    record.push(("setup_samples_s", nums(&setup_s)));
    let values = vec![
        ("setup_s", median(&quiet_setups)),
        ("answers_per_s", median(&quiet_rates)),
        ("ttf_p50_us", latency_us(&quiet_ops, |o| o.ttf_ns)),
        ("ttk_p50_us", latency_us(&quiet_ops, |o| o.ttk_ns)),
        ("peak_heap_mb", peak as f64 / alloc::MIB),
    ];
    Measured {
        values,
        attempted: rounds.iter().map(|r| r.rec.attempted).sum(),
        failed: rounds.iter().map(|r| r.rec.failed).sum(),
    }
}

/// The traced run: the workload's own op list with spans around every
/// call (against untraced rounds of the same list, for the overhead),
/// then the per-layer suite over the workload's relations.
fn traced(cfg: &Config, w: &dyn Workload) -> Result<Measured, String> {
    let epoch = Instant::now();
    let mut ready = w.setup();
    timed_round(ready.as_mut(), Rec::default());
    let n = cfg
        .rounds
        .unwrap_or(if cfg.scale < 1.0 { 2 } else { TRACE_ROUNDS });
    let mut host = vec![host_ref_us()];
    let (mut plain, mut with_spans): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    for _ in 0..n {
        for traced in [false, true] {
            if w.fresh_each_round() {
                drop(ready);
                ready = w.setup();
            }
            let rec = if traced {
                Rec::traced(epoch)
            } else {
                Rec::default()
            };
            let round = timed_round(ready.as_mut(), rec);
            if traced { &mut with_spans } else { &mut plain }.push(round);
        }
        host.push(host_ref_us());
    }
    drop(ready);
    let mut all = Rec::traced(epoch);
    let traced_walls: Vec<f64> = with_spans.iter().map(|r| r.wall_s).collect();
    for round in with_spans {
        all.merge(round.rec);
    }
    let mut values = layers::run(&w.layer_inputs(), &mut all);
    host.push(host_ref_us());

    let rates: Vec<f64> = plain.iter().map(Round::rate).collect();
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let ops = pooled_ops(&plain);
    let attempted: u64 = plain.iter().map(|r| r.rec.attempted).sum();
    let failed: u64 = plain.iter().map(|r| r.rec.failed).sum();
    values.push(("bench.rounds", plain.len() as f64));
    values.push(("bench.round_iqr_ratio", iqr_ratio(&rates)));
    values.push(("bench.host_ref_us", median(&host)));
    values.push(("bench.host_mem_ns", host_mem_ns()));
    values.push((
        "bench.trace_overhead_ratio",
        median(&traced_walls) / median(&walls),
    ));
    values.push((
        "bench.ttf_p95_us",
        percentile(&us(&ops, |o| o.ttf_ns), 0.95),
    ));
    values.push((
        "bench.ttk_p95_us",
        percentile(&us(&ops, |o| o.ttk_ns), 0.95),
    ));
    values.push(("bench.peak_rss_mb", alloc::peak_rss_mb()));

    let tracer = all.tracer.take().expect("created traced above");
    println!("spans: {} recorded", tracer.spans.len());
    if let Some(path) = &cfg.spans {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        tracer
            .write_jsonl(&mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Measured {
        values,
        attempted: attempted + all.attempted,
        failed: failed + all.failed,
    })
}

/// Generate, verify, run, print every metric by name with its unit.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let w = workloads::generate(&cfg.workload, cfg.seed, cfg.scale).ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of {:?}",
            cfg.workload,
            workloads::NAMES
        )
    })?;
    let w = w.as_ref();
    let mut record = meta(cfg, w);
    // Before any thread is spawned, so that all of them inherit it.
    let placement = crate::pin::confine_to_home();
    record.push((
        "home_cpu",
        placement.map_or(Json::Null, |p| Json::Num(p.home as f64)),
    ));
    record.push((
        "away_cpu",
        placement.map_or(Json::Null, |p| Json::Num(p.away as f64)),
    ));
    for (k, v) in &record {
        println!("{k}: {v}");
    }
    let verdict = w.verify();
    match &verdict {
        Ok(summary) => println!("verify: ok — {summary}"),
        Err(why) => println!("verify: FAILED — {why}"),
    }
    let Measured {
        values,
        attempted,
        failed,
    } = if cfg.trace {
        traced(cfg, w)?
    } else {
        measured(cfg, w, &mut record)
    };
    // Exactly the declared names, in the declared order.
    let declared: Vec<&str> = if cfg.trace {
        PER_LAYER.iter().map(|p| p.name).collect()
    } else {
        END_TO_END.iter().map(|e| e.name).collect()
    };
    let mut metrics = Vec::new();
    for name in declared {
        let unit = unit_of(name).unwrap_or("");
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v);
        println!("{name:<36} {value:>16.4} {unit}");
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    let complete = metrics.iter().all(|(_, m)| {
        m.get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
    });
    let correct = verdict.is_ok() && failed == 0 && complete;
    println!("attempted {attempted}, failed {failed}, correct {correct}");
    record.push(("correct", Json::Bool(correct)));
    record.push(("attempted", Json::Num(attempted as f64)));
    record.push(("failed", Json::Num(failed as f64)));
    record.push(("metrics", Json::obj(metrics)));
    let record = Json::obj(record);
    if let Some(path) = &cfg.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{record}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Outcome {
        record,
        correct,
        failed,
    })
}
