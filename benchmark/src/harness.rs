//! What every workload shares: the seeded generator, the per-round
//! recorder with its optional span tracer, the `Workload`/`Ready`
//! contract, and the paged-query client loop.

use anyk_engine::RankSpec;
use anyk_query::cq::ConjunctiveQuery;
use anyk_serve::{select_text, LocalClient, TcpClient};
use anyk_storage::{Relation, RelationBuilder, Schema};
use anyk_workloads::graphs::{random_edge_relation, WeightDist};
use rand::{rngs::StdRng, Rng as _, SeedableRng};
use std::time::Instant;

/// The benchmark's only source of randomness, so one `--seed` fixes
/// every input: the workspace's own seedable generator.
pub struct Rng(StdRng);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(StdRng::seed_from_u64(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.gen()
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0.gen_range(0..n.max(1))
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A uniform random edge relation `(src, dst)` of `edges` rows whose
    /// mean out-degree is `degree`, with uniform weights.
    pub fn edges(&mut self, edges: usize, degree: usize) -> Relation {
        self.edges_over(edges, (edges / degree).max(2) as u64)
    }

    /// The same over node ids `0..nodes`.
    pub fn edges_over(&mut self, edges: usize, nodes: u64) -> Relation {
        random_edge_relation(edges, nodes, WeightDist::Uniform, None, self.next_u64())
    }

    /// One append batch of `rows` edges over node ids `0..nodes`: the
    /// `VALUES` list as protocol text, and the same rows as a relation.
    /// Weights have four decimals on the wire; the relation holds the
    /// value the server parses back.
    pub fn insert_batch(&mut self, rows: usize, nodes: u64) -> (String, Relation) {
        let mut text = Vec::with_capacity(rows);
        let mut batch = RelationBuilder::new(Schema::new(["src", "dst"]));
        for _ in 0..rows {
            let (s, d) = (self.below(nodes) as i64, self.below(nodes) as i64);
            let w = format!("{:.4}", self.below(10_000) as f64 / 10_000.0);
            batch.push_ints(&[s, d], w.parse().expect("a decimal literal"));
            text.push(format!("({s},{d},{w})"));
        }
        (text.join(","), batch.finish())
    }

    /// `edges` distinct `(src, dst)` pairs over `nodes` node ids with
    /// dyadic weights: the brute-force oracle's instances. Duplicate-free
    /// because the decomposed (GHD) route has set semantics while the
    /// oracle, like every other route, has bag semantics; dyadic so sums
    /// are exact in any association order.
    pub fn distinct_edges(&mut self, edges: usize, nodes: u64) -> Relation {
        let mut seen = std::collections::BTreeSet::new();
        let mut b = RelationBuilder::new(Schema::new(["src", "dst"]));
        while seen.len() < edges.min((nodes * nodes) as usize) {
            let (s, d) = (self.below(nodes) as i64, self.below(nodes) as i64);
            if seen.insert((s, d)) {
                b.push_ints(&[s, d], self.below(4096) as f64 / 4096.0);
            }
        }
        b.finish()
    }
}

/// `base × scale`, never below `floor`.
pub fn scaled(base: usize, scale: f64, floor: usize) -> usize {
    ((base as f64 * scale) as usize).max(floor)
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// One span of the traced run: a call into a layer's public function,
/// recorded by the benchmark around the call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    /// The operation the span belongs to (spans of one op share it).
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Answers (or rows) the call produced.
    pub count: u64,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len() as u32 + 1;
        if self.stack.is_empty() {
            self.op += 1;
        }
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            op: self.op,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            count: 0,
        });
        self.stack.push(id);
        id as usize - 1
    }

    fn exit(&mut self, idx: usize, count: u64) {
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans[idx].count = count;
        self.stack.pop();
    }

    /// Append another thread's spans, keeping ids and op numbers unique.
    pub fn absorb(&mut self, other: Tracer) {
        let id_base = self.spans.len() as u32;
        let op_base = self.op;
        self.op += other.op;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += id_base;
            if s.parent != 0 {
                s.parent += id_base;
            }
            s.op += op_base;
            s
        }));
    }

    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        Ok(())
    }
}

/// One timed operation: its class (query shape × ranking) and the two
/// latencies the paper defines.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub class: u16,
    pub ttf_ns: u64,
    pub ttk_ns: u64,
}

/// What one round (or one client thread of a round) observed.
#[derive(Default)]
pub struct Rec {
    pub ops: Vec<OpSample>,
    pub answers: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Time inside the round that the harness spent checking outputs
    /// where that is not negligible beside the op; the runner takes it
    /// off the round's wall.
    pub untimed_ns: u64,
    pub tracer: Option<Tracer>,
}

/// Token of an open span; [`Rec::exit`] closes it.
#[derive(Clone, Copy)]
pub struct Open(usize);

impl Rec {
    pub fn traced(epoch: Instant) -> Rec {
        Rec {
            tracer: Some(Tracer::new(epoch)),
            ..Rec::default()
        }
    }

    /// A recorder for one more thread of the same round.
    pub fn fork(&self) -> Rec {
        Rec {
            tracer: self.tracer.as_ref().map(|t| Tracer::new(t.epoch)),
            ..Rec::default()
        }
    }

    pub fn merge(&mut self, other: Rec) {
        self.ops.extend(other.ops);
        self.answers += other.answers;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.untimed_ns += other.untimed_ns;
        if let (Some(mine), Some(theirs)) = (self.tracer.as_mut(), other.tracer) {
            mine.absorb(theirs);
        }
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        Open(match self.tracer.as_mut() {
            Some(t) => t.enter(name),
            None => usize::MAX,
        })
    }

    #[inline]
    pub fn exit(&mut self, open: Open, count: u64) {
        if let Some(t) = self.tracer.as_mut() {
            t.exit(open.0, count);
        }
    }

    /// Account one attempted op. A failed op delivers nothing and has
    /// no latency sample: it can never look fast.
    pub fn op(&mut self, class: u16, ttf_ns: u64, ttk_ns: u64, answers: u64, ok: bool) {
        self.attempted += 1;
        if ok {
            self.answers += answers;
            self.ops.push(OpSample {
                class,
                ttf_ns,
                ttk_ns,
            });
        } else {
            self.failed += 1;
        }
    }

    /// Account an attempted op that has no latency of its own (a write).
    pub fn plain_op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// A workload: seeded inputs generated before any timing.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// The `k` of TT(k).
    fn k(&self) -> usize;
    /// Rows per relation, ops per round and the like, for the report.
    fn sizing(&self) -> String;
    /// One cold set-up, timed by the runner for `setup_s`: catalog
    /// registration, engine/service/server construction, and the first
    /// execution of each distinct query, which is where plans are
    /// prepared and indexes built.
    fn setup(&self) -> Box<dyn Ready + '_>;
    /// Whether every round starts from a fresh [`Workload::setup`]
    /// (a stateful workload is only stationary if it does).
    fn fresh_each_round(&self) -> bool {
        false
    }
    /// The untimed verification pass. `Ok` carries a one-line summary.
    fn verify(&self) -> Result<String, String>;
    /// Relations and queries the per-layer suite runs over.
    fn layer_inputs(&self) -> crate::layers::LayerInputs;
}

/// A set-up workload, ready to run rounds.
pub trait Ready {
    /// Execute the whole pre-generated operation list once.
    fn round(&mut self, rec: &mut Rec);
}

/// The protocol clients the paged loop can drive.
pub trait Wire {
    const SPAN: &'static str;
    fn request(&mut self, line: &str) -> String;
}

impl Wire for TcpClient {
    const SPAN: &'static str = "server.tcp_send";
    fn request(&mut self, line: &str) -> String {
        // An I/O error is a failed op, reported through the reply check.
        self.send(line)
            .unwrap_or_else(|e| format!("ERR io: {e}\nEND\n"))
    }
}

impl Wire for LocalClient {
    const SPAN: &'static str = "server.local_send";
    fn request(&mut self, line: &str) -> String {
        self.send(line)
    }
}

/// A read op as protocol text: `SELECT … LIMIT page`, then `NEXT page`
/// until `pages` pages have arrived, then `CLOSE`.
#[derive(Debug, Clone)]
pub struct PagedQuery {
    pub class: u16,
    pub select: String,
    pub page: usize,
    pub pages: usize,
}

impl PagedQuery {
    pub fn new(
        class: usize,
        cq: &ConjunctiveQuery,
        rank: RankSpec,
        page: usize,
        pages: usize,
    ) -> PagedQuery {
        PagedQuery {
            class: class as u16,
            select: select_text(cq, rank, Some(page)),
            page,
            pages,
        }
    }
}

pub struct PagedOutcome {
    pub ttf_ns: u64,
    pub ttk_ns: u64,
    pub rows: u64,
    /// FNV-1a over every reply body (all bytes after the header line).
    pub checksum: u64,
    /// Every reply was `OK` and every page was full.
    pub ok: bool,
}

fn reply_body(reply: &str) -> &str {
    reply.split_once('\n').map_or("", |(_, body)| body)
}

fn cursor_of(reply: &str) -> Option<&str> {
    let rest = reply.split_once("cursor=")?.1;
    rest.split([' ', '\n']).next().filter(|c| *c != "-")
}

/// Run one paged read. TTF ends when the first page is in the caller's
/// hands, TT(k) when the last one is; the `CLOSE` is outside both but
/// inside the round's wall time.
pub fn paged_query<W: Wire>(wire: &mut W, q: &PagedQuery, rec: &mut Rec) -> PagedOutcome {
    let op = rec.enter("op.paged_query");
    let mut out = PagedOutcome {
        ttf_ns: 0,
        ttk_ns: 0,
        rows: 0,
        checksum: FNV_SEED,
        ok: true,
    };
    let t0 = Instant::now();
    let mut cursor = String::new();
    for page in 0..q.pages {
        let span = rec.enter(W::SPAN);
        let reply = if page == 0 {
            wire.request(&q.select)
        } else {
            wire.request(&format!("NEXT {} ON {cursor};", q.page))
        };
        let at = t0.elapsed().as_nanos() as u64;
        if page == 0 {
            out.ttf_ns = at;
        }
        out.ttk_ns = at;
        let body = reply_body(&reply);
        let rows = body.matches("ROW ").count();
        rec.exit(span, rows as u64);
        out.rows += rows as u64;
        out.checksum = fnv(out.checksum, body.as_bytes());
        out.ok &= reply.starts_with("OK ") && rows == q.page;
        match cursor_of(&reply) {
            Some(c) => {
                cursor.clear();
                cursor.push_str(c);
            }
            None => {
                // Exhausted (or refused): nothing left to page or close.
                out.ok &= page + 1 == q.pages;
                cursor.clear();
                break;
            }
        }
    }
    if !cursor.is_empty() {
        let span = rec.enter(W::SPAN);
        let closed = wire.request(&format!("CLOSE {cursor};"));
        rec.exit(span, 0);
        out.ok &= closed.starts_with("OK ");
    }
    rec.exit(op, out.rows);
    out
}

/// The checksum [`paged_query`] computes when the server returns
/// exactly `rows` (already encoded `ROW …` lines) in full pages.
pub fn expected_checksum(rows: &[String], page: usize) -> u64 {
    rows.chunks(page).fold(FNV_SEED, |h, chunk| {
        let h = chunk
            .iter()
            .fold(h, |h, row| fnv(fnv(h, row.as_bytes()), b"\n"));
        fnv(h, b"END\n")
    })
}

/// Time a fixed pure-CPU loop, in µs: the host sentinel. Four
/// independent xorshift chains, so it issues several instructions per
/// cycle and slows when a co-tenant takes the core's other hardware
/// thread (a single dependent chain does not). Reported next to the
/// metrics so a loud neighbour is visible; never used to rescale one.
pub fn host_ref_us() -> f64 {
    let t = Instant::now();
    let mut x = [
        0x2545_F491_4F6C_DD1Du64,
        0x9E37_79B9_7F4A_7C15,
        0xBF58_476D_1CE4_E5B9,
        0x94D0_49BB_1331_11EB,
    ];
    for _ in 0..1_000_000u32 {
        for v in &mut x {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
        }
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e6
}

/// Time a dependent pointer chase through 32 MiB, in ns per step: the
/// host's memory sentinel. The pure-CPU loop above does not see what
/// disturbs this host: over ten minutes a chase through 1 MiB (inside
/// the core's own L2) held 6.8 ns within 2 %, while 16 MiB — far
/// inside the 260 MiB L3 the host advertises — cost 150 to 190 ns,
/// which is DRAM, moving with the other tenants. Reported next to the
/// metrics; never used to rescale one. The buffer is freed before
/// returning, so it is in no heap peak.
pub fn host_mem_ns() -> f64 {
    const LINES: usize = 32 * 1024 * 1024 / 64;
    const STEPS: usize = 200_000;
    // Sattolo's shuffle: one cycle through every cache line.
    let mut next: Vec<[u32; 16]> = (0..LINES as u32).map(|i| [i; 16]).collect();
    let mut rng = Rng::new(LINES as u64);
    for i in (1..LINES).rev() {
        let j = rng.below(i as u64) as usize;
        let (a, b) = (next[i][0], next[j][0]);
        next[i][0] = b;
        next[j][0] = a;
    }
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..STEPS {
        at = next[at as usize][0];
    }
    std::hint::black_box(at);
    t.elapsed().as_nanos() as f64 / STEPS as f64
}
