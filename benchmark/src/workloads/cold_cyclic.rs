//! `cold_cyclic` — cold prepare on cyclic queries, single thread.
//!
//! Every op builds its tries, runs its seek/intersect join and
//! materializes its bags from nothing: `storage::Trie::build`,
//! `join::generic_join` / `c4` and the decomposed route dominate, and
//! the page path is negligible.

use crate::harness::{scaled, Ready, Rec, Rng, Workload};
use crate::layers::{LayerInputs, LayerQuery};
use crate::oracle::{check_against_brute_force, monotone};
use anyk_engine::{Engine, RankSpec, RankedAnswer};
use anyk_query::cq::{ConjunctiveQuery, QueryBuilder};
use anyk_storage::{Catalog, Relation};
use std::time::Instant;

const K: usize = 10;

/// An `l`-cycle over relations `{prefix}1 … {prefix}l`.
fn cycle_over(prefix: &str, l: usize) -> ConjunctiveQuery {
    (0..l)
        .fold(QueryBuilder::new(), |b, i| {
            let (x, y) = (format!("x{}", i + 1), format!("x{}", (i + 1) % l + 1));
            b.atom(format!("{prefix}{}", i + 1), &[x.as_str(), y.as_str()])
        })
        .build()
}

struct Shape {
    label: &'static str,
    cq: ConjunctiveQuery,
    relations: Vec<Relation>,
    /// The same shape at smoke scale with dyadic weights, for the
    /// brute-force comparison.
    small: Vec<Relation>,
}

pub struct ColdCyclic {
    shapes: Vec<Shape>,
    /// Indexes into `shapes`, in execution order.
    schedule: Vec<usize>,
}

fn register(catalog: &mut Catalog, cq: &ConjunctiveQuery, relations: &[Relation]) {
    for (atom, rel) in cq.atoms().iter().zip(relations) {
        catalog.register(atom.relation.clone(), rel.clone());
    }
}

impl ColdCyclic {
    pub fn generate(seed: u64, scale: f64) -> ColdCyclic {
        let mut rng = Rng::new(seed);
        // Each shape has its own relations, sized so that one cold op
        // takes 3-6 ms: the 4-cycle's case split and the
        // 5-cycle's bag materialization grow much faster with density
        // than the triangle's generic join does.
        let mut shape = |label, prefix, l, edges, floor, degree| {
            let edges = scaled(edges, scale, floor);
            Shape {
                label,
                cq: cycle_over(prefix, l),
                relations: (0..l).map(|_| rng.edges(edges, degree)).collect(),
                small: (0..l).map(|_| rng.distinct_edges(60, 20)).collect(),
            }
        };
        let shapes = vec![
            shape("triangle", "T", 3, 2_000, 200, 20),
            shape("cycle4", "C", 4, 1_600, 150, 4),
            shape("cycle5", "P", 5, 105, 60, 3),
        ];
        let per_shape = scaled(3, scale, 1);
        let mut schedule: Vec<usize> = (0..shapes.len() * per_shape)
            .map(|i| i % shapes.len())
            .collect();
        rng.shuffle(&mut schedule);
        ColdCyclic { shapes, schedule }
    }

    fn catalog(&self) -> Catalog {
        let mut catalog = Catalog::new();
        for s in &self.shapes {
            register(&mut catalog, &s.cq, &s.relations);
        }
        catalog
    }
}

/// One cold op: a fresh engine (empty plan cache, empty index catalog;
/// the relation payloads are shared `Arc`s), prepare, top-k.
fn cold_op(
    catalog: &Catalog,
    cq: &ConjunctiveQuery,
    rec: &mut Rec,
) -> (u64, u64, Vec<RankedAnswer>) {
    let op = rec.enter("op.cold_query");
    let t0 = Instant::now();
    let span = rec.enter("engine.new");
    let engine = Engine::new(catalog.fork_with_fresh_indexes());
    rec.exit(span, 0);
    let span = rec.enter("engine.prepare_cold");
    let prepared = engine.prepare(cq.clone(), RankSpec::Sum);
    rec.exit(span, 0);
    let mut answers = Vec::new();
    let mut ttf_ns = 0;
    if let Ok(prepared) = prepared {
        let span = rec.enter("engine.top_k");
        let mut stream = prepared.stream();
        answers.extend(stream.next());
        ttf_ns = t0.elapsed().as_nanos() as u64;
        answers.extend(stream.top_k(K - answers.len()));
        rec.exit(span, answers.len() as u64);
    }
    let ttk_ns = t0.elapsed().as_nanos() as u64;
    rec.exit(op, answers.len() as u64);
    (ttf_ns, ttk_ns, answers)
}

struct Registered<'a> {
    w: &'a ColdCyclic,
    catalog: Catalog,
    /// Per shape: the top-k of the first cold op, required of every
    /// later one (a cold prepare must not depend on what ran before).
    expect: Vec<Vec<RankedAnswer>>,
}

impl Workload for ColdCyclic {
    fn name(&self) -> &'static str {
        "cold_cyclic"
    }

    fn k(&self) -> usize {
        K
    }

    fn sizing(&self) -> String {
        let sizes: Vec<String> = self
            .shapes
            .iter()
            .map(|s| {
                format!(
                    "{} {} x {} edges",
                    s.label,
                    s.relations.len(),
                    s.relations[0].len()
                )
            })
            .collect();
        format!(
            "{}; {} ops/round, op = fresh Engine + prepare (sum) + top_k({K})",
            sizes.join(", "),
            self.schedule.len()
        )
    }

    fn setup(&self) -> Box<dyn Ready + '_> {
        let catalog = self.catalog();
        let mut warm = Rec::default();
        let expect = self
            .shapes
            .iter()
            .map(|s| cold_op(&catalog, &s.cq, &mut warm).2)
            .collect();
        Box::new(Registered {
            w: self,
            catalog,
            expect,
        })
    }

    fn verify(&self) -> Result<String, String> {
        let mut total = 0;
        for s in &self.shapes {
            let mut small = Catalog::new();
            register(&mut small, &s.cq, &s.small);
            total += check_against_brute_force(&small, &s.cq, RankSpec::Sum)?;
        }
        let catalog = self.catalog();
        for s in &self.shapes {
            let (_, _, top) = cold_op(&catalog, &s.cq, &mut Rec::default());
            if top.len() != K || !monotone(&top) {
                return Err(format!("{}: top-{K} is short or out of order", s.label));
            }
        }
        Ok(format!(
            "{} shapes agree with the brute-force join on the smoke-scale instance \
             ({total} answers); full-scale top-{K} complete and in rank order",
            self.shapes.len()
        ))
    }

    fn layer_inputs(&self) -> LayerInputs {
        let r = |shape: usize, i: usize| self.shapes[shape].relations[i].clone();
        LayerInputs {
            triangle: [r(0, 0), r(0, 1), r(0, 2)],
            four: [r(1, 0), r(1, 1), r(1, 2), r(1, 3)],
            catalog: self.catalog(),
            queries: self
                .shapes
                .iter()
                .map(|s| LayerQuery {
                    cq: s.cq.clone(),
                    rank: RankSpec::Sum,
                })
                .collect(),
        }
    }
}

impl Ready for Registered<'_> {
    fn round(&mut self, rec: &mut Rec) {
        for &i in &self.w.schedule {
            let (ttf_ns, ttk_ns, top) = cold_op(&self.catalog, &self.w.shapes[i].cq, rec);
            let ok = top.len() == K && top == self.expect[i];
            rec.op(i as u16, ttf_ns, ttk_ns, top.len() as u64, ok);
        }
    }
}
