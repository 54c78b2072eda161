//! `drain_deep` — the library path, warm, single thread, no server.
//!
//! `core` any-k enumeration (T-DP successor orders, the candidate heap,
//! `RankedAnswer` allocation) does all the work. Same `engine` layer as
//! `serve_pages`, used deep instead of shallow.

use super::{numbered_catalog, numbered_layer_inputs};
use crate::harness::{fnv, scaled, Ready, Rec, Rng, Workload, FNV_SEED};
use crate::layers::LayerInputs;
use crate::oracle::{check_against_brute_force, monotone};
use anyk_engine::{Cost, Engine, PreparedQuery, RankSpec, RankedAnswer};
use anyk_query::cq::{path_query, star_query, ConjunctiveQuery};
use anyk_storage::{Relation, Value};
use std::time::Instant;

const BATCH: usize = 500;

pub struct DrainDeep {
    relations: Vec<Relation>,
    classes: Vec<(String, ConjunctiveQuery, RankSpec)>,
    /// Indexes into `classes`, in execution order.
    schedule: Vec<usize>,
    k: usize,
    /// A smoke-scale instance with dyadic weights for the brute-force
    /// comparison (exhaustive enumeration is only affordable there).
    small: Vec<Relation>,
}

/// Instances of every shape × ranking, each over relations of its own.
/// How costly the first `k` answers of a random graph are to enumerate
/// depends on the graph: with one instance, `answers_per_s` differed by
/// ±4 % and `ttf_p50_us` by ±6 % between seeds on a quiet host.
const INSTANCES: usize = 4;
/// Consecutive drains of a class within a round. The first starts with
/// the class's plan pushed out of the nearest caches by the class before
/// it, and that start moved with the host's memory weather: alternating
/// runs of one seed read `ttf_p50_us` 28.5-32.1 µs with one drain per
/// class and 24.6-25.0 µs with three, whose median is a warm start.
const REPEATS: usize = 3;

fn shapes() -> [(&'static str, ConjunctiveQuery); 2] {
    [("path4", path_query(4)), ("star3", star_query(3))]
}

impl DrainDeep {
    pub fn generate(seed: u64, scale: f64) -> DrainDeep {
        let mut rng = Rng::new(seed);
        // 500 edges per relation: 3.5 MiB live over the 16 classes, 0.2 MiB
        // a class. At 2 000 (10 MiB) every drain started from DRAM, which
        // is what moves with the host's other tenants: repeated runs of
        // one seed spread 3.8 % in `answers_per_s` against 1.1 % here.
        let edges = scaled(500, scale, 300);
        let small = (0..4).map(|_| rng.distinct_edges(60, 20)).collect();
        let mut classes = Vec::new();
        for instance in 0..INSTANCES {
            for (shape, cq) in shapes() {
                for rank in [RankSpec::Sum, RankSpec::Lex] {
                    // Class `c` reads `R{4c+1}` … `R{4c+4}`.
                    let first = 4 * classes.len();
                    let cq = (0..cq.atoms().len()).fold(cq.clone(), |cq, i| {
                        cq.with_atom_relation(i, format!("R{}", first + i + 1))
                    });
                    classes.push((format!("{shape}/{rank}#{instance}"), cq, rank));
                }
            }
        }
        let relations = (0..4 * classes.len())
            .map(|_| rng.edges(edges, 10))
            .collect();
        let mut order: Vec<usize> = (0..classes.len()).collect();
        rng.shuffle(&mut order);
        let schedule = order.iter().flat_map(|&class| [class; REPEATS]).collect();
        DrainDeep {
            relations,
            classes,
            schedule,
            k: scaled(2_000, scale, 500),
            small,
        }
    }
}

struct Prepared<'a> {
    w: &'a DrainDeep,
    prepared: Vec<PreparedQuery>,
    /// Per class: checksum of the first `k` answers, fixed by the first
    /// drain and required of every later one.
    expect: Vec<Option<u64>>,
}

fn hash_answer(h: u64, a: &RankedAnswer) -> u64 {
    a.values.iter().fold(h, |h, v| match v {
        Value::Int(i) => fnv(h, &i.to_le_bytes()),
        other => fnv(h, format!("{other}").as_bytes()),
    })
}

impl Workload for DrainDeep {
    fn name(&self) -> &'static str {
        "drain_deep"
    }

    fn k(&self) -> usize {
        self.k
    }

    fn sizing(&self) -> String {
        format!(
            "{} relations x {} edges (degree 10), {} classes (path-4, star-3 x sum, lex x \
             {INSTANCES} instances, each over its own relations), {} ops/round \
             ({REPEATS} consecutive per class), op = stream() + next_batch({BATCH}) to k = {}",
            self.relations.len(),
            self.relations[0].len(),
            self.classes.len(),
            self.schedule.len(),
            self.k
        )
    }

    fn setup(&self) -> Box<dyn Ready + '_> {
        let engine = Engine::new(numbered_catalog(&self.relations));
        let prepared: Vec<PreparedQuery> = self
            .classes
            .iter()
            .map(|(label, cq, rank)| {
                let p = engine
                    .prepare(cq.clone(), *rank)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                // First execution: the first stream's first answer.
                std::hint::black_box(p.stream().next());
                p
            })
            .collect();
        Box::new(Prepared {
            w: self,
            expect: vec![None; prepared.len()],
            prepared,
        })
    }

    fn verify(&self) -> Result<String, String> {
        let small = numbered_catalog(&self.small);
        let mut total = 0;
        for (_, cq) in shapes() {
            for rank in [RankSpec::Sum, RankSpec::Lex] {
                total += check_against_brute_force(&small, &cq, rank)?;
            }
        }
        Ok(format!(
            "path-4 and star-3 under sum and lex agree with the brute-force join on the \
             smoke-scale instance ({total} answers: count, tuples, rank order, scalar costs)"
        ))
    }

    fn layer_inputs(&self) -> LayerInputs {
        let queries = self.classes.iter().map(|(_, cq, rank)| (cq.clone(), *rank));
        numbered_layer_inputs(&self.relations, queries)
    }
}

impl Ready for Prepared<'_> {
    fn round(&mut self, rec: &mut Rec) {
        let k = self.w.k;
        for &class in &self.w.schedule {
            let op = rec.enter("op.deep_drain");
            let t0 = Instant::now();
            let span = rec.enter("engine.stream");
            let mut stream = self.prepared[class].stream();
            rec.exit(span, 0);
            let span = rec.enter("engine.first_answer");
            let first = stream.next();
            let ttf_ns = t0.elapsed().as_nanos() as u64;
            rec.exit(span, 1);
            // The order check and the checksum are the harness's work,
            // not the caller's: the time they take is kept out of
            // TT(k) and out of the round's wall.
            let mut verify_ns = 0u64;
            let mut n = 0usize;
            let mut ordered = true;
            let mut checksum = FNV_SEED;
            let mut last: Option<Cost> = None;
            let mut ttk_ns = ttf_ns;
            let mut batch: Vec<RankedAnswer> = first.into_iter().collect();
            loop {
                let v0 = Instant::now();
                ordered &= monotone(&batch)
                    && last
                        .as_ref()
                        .zip(batch.first())
                        .is_none_or(|(c, a)| *c <= a.cost);
                checksum = batch.iter().fold(checksum, hash_answer);
                n += batch.len();
                last = batch.pop().map(|a| a.cost);
                verify_ns += v0.elapsed().as_nanos() as u64;
                if n >= k {
                    break;
                }
                let span = rec.enter("engine.next_batch");
                batch = stream.next_batch(BATCH.min(k - n));
                ttk_ns = t0.elapsed().as_nanos() as u64 - verify_ns;
                rec.exit(span, batch.len() as u64);
                if batch.is_empty() {
                    break;
                }
            }
            rec.untimed_ns += verify_ns;
            rec.exit(op, n as u64);
            let same = *self.expect[class].get_or_insert(checksum) == checksum;
            rec.op(
                class as u16,
                ttf_ns,
                ttk_ns,
                n as u64,
                n == k && ordered && same,
            );
        }
    }
}
