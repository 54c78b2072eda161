//! `serve_pages` — the served top-k path, warm, over TCP loopback.
//!
//! Parser, plan-cache hit, stream spawn, session/page, wire encode and
//! transport do nearly all the work and enumeration almost none.

use super::{numbered_catalog, numbered_layer_inputs};
use crate::harness::{
    expected_checksum, paged_query, scaled, PagedQuery, Ready, Rec, Rng, Workload,
};
use crate::layers::LayerInputs;
use crate::oracle::monotone;
use anyk_engine::{Engine, RankSpec, RankedAnswer};
use anyk_query::cq::{cycle_query, path_query, ConjunctiveQuery};
use anyk_serve::{
    encode_answer, LocalClient, Server, Service, TcpClient, Transport, TransportConfig,
};
use anyk_storage::{Catalog, Relation};

const PAGE: usize = 10;
const PAGES: usize = 5;
/// Closed-loop client connections, one thread each: two requests are
/// in flight at any time, so both workers hold sessions at once and the
/// event loop multiplexes two sockets. Clients and server share the
/// home CPU (see [`crate::pin`]): with the clients on the other CPU of
/// the 2-core host every wake-up crosses CPUs, throughput halves
/// (105k against 200k answers/s) and rounds spread 12-14 % within a
/// run against 4 %. That placement is reported per layer
/// (`server.two_cpu_answers_per_s`), not gated.
const CLIENTS: usize = 2;
/// Event-loop workers, pinned so the host's core count cannot move it.
const WORKERS: usize = 2;

struct Combo {
    label: String,
    cq: ConjunctiveQuery,
    rank: RankSpec,
    query: PagedQuery,
}

pub struct ServePages {
    relations: Vec<Relation>,
    combos: Vec<Combo>,
    /// Per client: indexes into `combos`, in execution order.
    schedule: Vec<Vec<usize>>,
    /// Per combo: its first `k` answers from a direct `RankedStream`.
    direct: Vec<Vec<RankedAnswer>>,
    /// Per combo: checksum of `direct` as the wire must carry it.
    expect: Vec<u64>,
}

impl ServePages {
    pub fn generate(seed: u64, scale: f64) -> ServePages {
        let mut rng = Rng::new(seed);
        let edges = scaled(2_000, scale, 200);
        let relations: Vec<Relation> = (0..4).map(|_| rng.edges(edges, 10)).collect();
        let shapes = [
            ("path3", path_query(3)),
            ("triangle", cycle_query(3)),
            ("cycle4", cycle_query(4)),
        ];
        let mut combos = Vec::new();
        for (shape, cq) in &shapes {
            for rank in [RankSpec::Sum, RankSpec::Max, RankSpec::Lex] {
                combos.push(Combo {
                    label: format!("{shape}/{rank}"),
                    cq: cq.clone(),
                    rank,
                    query: PagedQuery::new(combos.len(), cq, rank, PAGE, PAGES),
                });
            }
        }
        let per_combo = scaled(10, scale, 1);
        let schedule = (0..CLIENTS)
            .map(|_| {
                let mut ops: Vec<usize> = (0..combos.len() * per_combo)
                    .map(|i| i % combos.len())
                    .collect();
                rng.shuffle(&mut ops);
                ops
            })
            .collect();
        let mut w = ServePages {
            relations,
            combos,
            schedule,
            direct: Vec::new(),
            expect: Vec::new(),
        };
        let engine = Engine::new(w.catalog());
        for c in &w.combos {
            // A query the engine refuses has no answers: `verify` reports it.
            let answers: Vec<RankedAnswer> = engine
                .prepare(c.cq.clone(), c.rank)
                .map(|p| p.stream().take(PAGE * PAGES).collect())
                .unwrap_or_default();
            // Rendered by the wire's own row encoder.
            let rows: Vec<String> = answers.iter().map(encode_answer).collect();
            w.expect.push(expected_checksum(&rows, PAGE));
            w.direct.push(answers);
        }
        w
    }

    /// Catalog, engine, service and server, two connected clients, and
    /// the first execution of every distinct query (which fills the plan
    /// cache and the index catalog).
    fn serve(&self) -> Served<'_> {
        let service = Service::new(Engine::new(self.catalog()));
        let server = Server::bind_with(
            service,
            "127.0.0.1:0",
            TransportConfig {
                transport: Transport::EventLoop,
                workers: WORKERS,
                ..TransportConfig::default()
            },
        )
        .expect("bind the event-loop server on loopback");
        let mut clients: Vec<TcpClient> = (0..CLIENTS)
            .map(|_| TcpClient::connect(server.addr()).expect("connect to the server"))
            .collect();
        let mut warm = Rec::default();
        for combo in &self.combos {
            paged_query(&mut clients[0], &combo.query, &mut warm);
        }
        Served {
            w: self,
            clients,
            _server: server,
        }
    }

    fn catalog(&self) -> Catalog {
        numbered_catalog(&self.relations)
    }
}

struct Served<'a> {
    w: &'a ServePages,
    // Dropped (and so shut down) after the clients.
    clients: Vec<TcpClient>,
    _server: Server,
}

impl Workload for ServePages {
    fn name(&self) -> &'static str {
        "serve_pages"
    }

    fn k(&self) -> usize {
        PAGE * PAGES
    }

    fn sizing(&self) -> String {
        format!(
            "4 relations x {} edges (degree 10), {} combos, {} clients x {} ops/round, \
             op = SELECT LIMIT {PAGE} + {} x NEXT {PAGE} + CLOSE, {WORKERS} workers",
            self.relations[0].len(),
            self.combos.len(),
            self.schedule.len(),
            self.schedule[0].len(),
            PAGES - 1
        )
    }

    fn setup(&self) -> Box<dyn Ready + '_> {
        Box::new(self.serve())
    }
    fn verify(&self) -> Result<String, String> {
        for (combo, answers) in self.combos.iter().zip(&self.direct) {
            if answers.len() != self.k() {
                return Err(format!("{}: only {} answers", combo.label, answers.len()));
            }
            if !monotone(answers) {
                return Err(format!("{}: costs are not in rank order", combo.label));
            }
        }
        // Byte identity: TCP == in-process == direct stream + encoder.
        let mut served = self.serve();
        let service_local = Service::new(Engine::new(self.catalog()));
        let mut local = LocalClient::new(&service_local);
        for (i, combo) in self.combos.iter().enumerate() {
            let mut rec = Rec::default();
            let tcp = paged_query(&mut served.clients[0], &combo.query, &mut rec);
            let loc = paged_query(&mut local, &combo.query, &mut rec);
            for (via, got) in [("tcp", &tcp), ("local", &loc)] {
                if !got.ok || got.checksum != self.expect[i] {
                    return Err(format!(
                        "{}: {via} pages differ from the direct stream",
                        combo.label
                    ));
                }
            }
        }
        Ok(format!(
            "{} combos: TcpClient == LocalClient == direct stream, {} rows each, rank order holds",
            self.combos.len(),
            self.k()
        ))
    }

    fn layer_inputs(&self) -> LayerInputs {
        let queries = self.combos.iter().map(|c| (c.cq.clone(), c.rank));
        numbered_layer_inputs(&self.relations, queries)
    }
}

impl Ready for Served<'_> {
    fn round(&mut self, rec: &mut Rec) {
        let w = self.w;
        let parts: Vec<Rec> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&w.schedule)
                .map(|(client, ops)| {
                    let mut mine = rec.fork();
                    s.spawn(move || {
                        for &i in ops {
                            let out = paged_query(client, &w.combos[i].query, &mut mine);
                            let ok = out.ok && out.checksum == w.expect[i];
                            mine.op(i as u16, out.ttf_ns, out.ttk_ns, out.rows, ok);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for part in parts {
            rec.merge(part);
        }
    }
}
