//! `live_writes` — writes beside reads, one thread, through
//! `LocalClient` (transport is `serve_pages`' job).
//!
//! Uses `engine` and `core::union` differently from the read-only
//! workloads: delta-union merges, refresh-on-append, compaction. Every
//! round starts from a fresh `Service` and replays the same interleaved
//! schedule, so every round crosses the same auto-compactions with the
//! same delta counts at every read — which is what makes it stationary.

use super::{numbered_catalog, numbered_layer_inputs};
use crate::harness::{
    expected_checksum, paged_query, scaled, PagedQuery, Ready, Rec, Rng, Workload,
};
use crate::layers::LayerInputs;
use anyk_engine::{Engine, RankSpec};
use anyk_query::cq::{ConjunctiveQuery, QueryBuilder};
use anyk_serve::{encode_answer, LocalClient, Service};
use anyk_storage::Relation;
use std::sync::OnceLock;

const PAGE: usize = 10;
const PAGES: usize = 5;
/// Rows of `R1` before the first INSERT, and rows per INSERT: the delta
/// tail reaches the base (and auto-compacts) after steps 16 and 48.
const BASE_ROWS: usize = 1_024;
const BATCH_ROWS: usize = 64;
/// Reads after each INSERT, as indexes into `reads`.
const READS_PER_STEP: [usize; 8] = [0, 1, 0, 2, 0, 1, 0, 2];

struct Step {
    insert: String,
    /// The same rows as a relation, for the reference engine.
    batch: Relation,
}

pub struct LiveWrites {
    /// `R1` (small, appended to), `R2`, `R3`, `R4`.
    relations: Vec<Relation>,
    steps: Vec<Step>,
    reads: Vec<(ConjunctiveQuery, PagedQuery)>,
    /// Checksums of every read in schedule order, fixed by the first
    /// round and required of every later one.
    expect: OnceLock<Vec<u64>>,
}

impl LiveWrites {
    pub fn generate(seed: u64, scale: f64) -> LiveWrites {
        let mut rng = Rng::new(seed);
        let edges = scaled(4_000, scale, 400);
        let nodes = (edges / 10) as u64;
        let mut relations = vec![rng.edges_over(BASE_ROWS, nodes)];
        relations.extend((0..3).map(|_| rng.edges_over(edges, nodes)));
        // At least 24 steps, so even a smoke run crosses a compaction.
        let steps = (0..scaled(64, scale, 24))
            .map(|_| {
                let (values, batch) = rng.insert_batch(BATCH_ROWS, nodes);
                Step {
                    insert: format!("INSERT INTO R1 VALUES {values};"),
                    batch,
                }
            })
            .collect();
        let q = |a: &str, b: &str| {
            QueryBuilder::new()
                .atom(a, &["x", "y"])
                .atom(b, &["y", "z"])
                .build()
        };
        let triangle = QueryBuilder::new()
            .atom("R1", &["x", "y"])
            .atom("R2", &["y", "z"])
            .atom("R3", &["z", "x"])
            .build();
        let reads = [q("R1", "R2"), triangle, q("R3", "R4")]
            .into_iter()
            .enumerate()
            .map(|(class, cq)| {
                let query = PagedQuery::new(class, &cq, RankSpec::Sum, PAGE, PAGES);
                (cq, query)
            })
            .collect();
        LiveWrites {
            relations,
            steps,
            reads,
            expect: OnceLock::new(),
        }
    }

    /// A fresh service and the first execution of each read.
    fn serve(&self) -> Live<'_> {
        let service = Service::new(Engine::new(numbered_catalog(&self.relations)));
        let mut client = LocalClient::new(&service);
        let mut warm = Rec::default();
        for (_, query) in &self.reads {
            paged_query(&mut client, query, &mut warm);
        }
        Live {
            w: self,
            service,
            client,
        }
    }

    /// What a fresh engine loaded with base ⊎ the first `steps` appends
    /// must serve for read `read`, as the checksum `paged_query` computes.
    fn reference_checksum(&self, steps: usize, read: usize) -> Result<u64, String> {
        let mut parts = vec![self.relations[0].clone()];
        parts.extend(self.steps[..steps].iter().map(|s| s.batch.clone()));
        let mut relations = self.relations.clone();
        relations[0] = Relation::concat(&parts);
        let rows: Vec<String> = Engine::new(numbered_catalog(&relations))
            .prepare(self.reads[read].0.clone(), RankSpec::Sum)
            .map_err(|e| e.to_string())?
            .stream()
            .canonical_ties()
            .take(PAGE * PAGES)
            .map(|a| encode_answer(&a))
            .collect();
        Ok(expected_checksum(&rows, PAGE))
    }
}

struct Live<'a> {
    w: &'a LiveWrites,
    service: Service,
    client: LocalClient,
}

impl Ready for Live<'_> {
    fn round(&mut self, rec: &mut Rec) {
        let w = self.w;
        let expect = w.expect.get();
        let mut seen = Vec::with_capacity(w.steps.len() * READS_PER_STEP.len());
        for step in &w.steps {
            let span = rec.enter("server.local_insert");
            let reply = self.client.send(&step.insert);
            rec.exit(span, BATCH_ROWS as u64);
            rec.plain_op(reply.starts_with("OK "));
            for read in READS_PER_STEP {
                let out = paged_query(&mut self.client, &w.reads[read].1, rec);
                let same = expect.is_none_or(|e| e.get(seen.len()) == Some(&out.checksum));
                seen.push(out.checksum);
                rec.op(
                    read as u16,
                    out.ttf_ns,
                    out.ttk_ns,
                    out.rows,
                    out.ok && same,
                );
            }
        }
        w.expect.get_or_init(|| seen);
    }
}

impl Workload for LiveWrites {
    fn name(&self) -> &'static str {
        "live_writes"
    }

    fn k(&self) -> usize {
        PAGE * PAGES
    }

    fn sizing(&self) -> String {
        format!(
            "R1 {BASE_ROWS} rows + {} steps x (INSERT {BATCH_ROWS} rows + {} paged reads), \
             R2..R4 {} edges (degree 10); reads: 4 x R1-R2 path, 2 x triangle R1,R2,R3, \
             2 x R3-R4 path; fresh Service every round",
            self.steps.len(),
            READS_PER_STEP.len(),
            self.relations[1].len()
        )
    }

    fn setup(&self) -> Box<dyn Ready + '_> {
        Box::new(self.serve())
    }

    fn fresh_each_round(&self) -> bool {
        true
    }

    fn verify(&self) -> Result<String, String> {
        let mut live = self.serve();
        // Pin the delta-backed pages to a fresh engine at checkpoints on
        // both sides of each compaction and at the end.
        let checkpoints: Vec<usize> = [1, 15, 16, 17, 32, 48, 49, self.steps.len()]
            .into_iter()
            .filter(|&s| s <= self.steps.len())
            .collect();
        let mut rec = Rec::default();
        for (i, step) in self.steps.iter().enumerate() {
            if !live.client.send(&step.insert).starts_with("OK ") {
                return Err(format!("step {}: INSERT refused", i + 1));
            }
            if !checkpoints.contains(&(i + 1)) {
                continue;
            }
            for (read, (cq, query)) in self.reads.iter().enumerate() {
                let got = paged_query(&mut live.client, query, &mut rec);
                if !got.ok || got.checksum != self.reference_checksum(i + 1, read)? {
                    return Err(format!(
                        "step {}: pages of {cq} differ from a fresh engine over base + appends",
                        i + 1
                    ));
                }
            }
        }
        let compactions = live.service.stats().compactions;
        let due = [16, 48].iter().filter(|&&s| s <= self.steps.len()).count() as u64;
        if compactions != due {
            return Err(format!(
                "{compactions} compactions, the schedule crosses {due}"
            ));
        }
        Ok(format!(
            "delta-backed pages == fresh engine over base + appends at steps {checkpoints:?}; \
             {compactions} compactions"
        ))
    }

    fn layer_inputs(&self) -> LayerInputs {
        let queries = self.reads.iter().map(|(cq, _)| (cq.clone(), RankSpec::Sum));
        numbered_layer_inputs(&self.relations, queries)
    }
}
