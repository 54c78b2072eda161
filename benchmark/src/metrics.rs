//! The metric tables: every name the benchmark emits, with its unit,
//! its direction, and — for per-layer metrics — which end-to-end metric
//! on which workload it should move (on every other workload the
//! prediction is *no change*). `BENCHMARK.json` lists the same names;
//! the smoke tests hold the two together.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "answers_per_s",
        unit: "answers/s",
        better: "higher",
    },
    EndToEnd {
        name: "ttf_p50_us",
        unit: "us",
        better: "lower",
    },
    EndToEnd {
        name: "ttk_p50_us",
        unit: "us",
        better: "lower",
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: "lower",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const TRIE: &str = "ttf_p50_us on cold_cyclic; setup_s on serve_pages";
const INDEX: &str = "peak_heap_mb on serve_pages";
const DELTA: &str = "answers_per_s on live_writes";
const JOIN: &str = "ttf_p50_us, answers_per_s on cold_cyclic";
const DEEP: &str = "answers_per_s, ttk_p50_us on drain_deep";
const MERGE: &str = "ttk_p50_us, answers_per_s on live_writes";
const PAGES: &str = "ttf_p50_us, ttk_p50_us, answers_per_s on serve_pages";
const SHARD: &str = "none gated (watch for ROADMAP direction 3)";
const ALLOC: &str = "answers_per_s on serve_pages and drain_deep";
const SELF: &str = "diagnostic of the benchmark itself";

pub const PER_LAYER: [PerLayer; 48] = [
    m("storage.trie_build_us", "us", "lower", TRIE),
    m("storage.trie_build_rows_per_s", "rows/s", "higher", TRIE),
    m("storage.trie_seek_ns", "ns", "lower", TRIE),
    m("storage.index_hit_rate", "ratio", "higher", INDEX),
    m("storage.index_builds", "count", "lower", INDEX),
    m("storage.index_resident_mb", "MiB", "lower", INDEX),
    m("storage.delta_flatten_us", "us", "lower", DELTA),
    m("storage.compact_us", "us", "lower", DELTA),
    m("query.plan_us", "us", "lower", "ttf_p50_us on cold_cyclic"),
    m("join.gj_materialize_us", "us", "lower", JOIN),
    m("join.gj_rows_per_s", "rows/s", "higher", JOIN),
    m("join.c4_cases_us", "us", "lower", JOIN),
    m("join.lftj_us", "us", "lower", JOIN),
    m(
        "core.tdp_prepare_us",
        "us",
        "lower",
        "setup_s on drain_deep",
    ),
    m("core.anyk_next_ns", "ns", "lower", DEEP),
    m("core.merge_next_ns", "ns", "lower", MERGE),
    m("core.canonical_order_ns", "ns", "lower", MERGE),
    m(
        "engine.prepare_cold_us",
        "us",
        "lower",
        "ttf_p50_us on cold_cyclic",
    ),
    m(
        "engine.prepare_hit_us",
        "us",
        "lower",
        "ttf_p50_us on serve_pages",
    ),
    m(
        "engine.cache_hit_rate",
        "ratio",
        "higher",
        "ttf_p50_us on serve_pages",
    ),
    m(
        "engine.stream_spawn_us",
        "us",
        "lower",
        "ttf_p50_us on serve_pages",
    ),
    m(
        "engine.pull_ns_per_answer",
        "ns",
        "lower",
        "answers_per_s on drain_deep",
    ),
    m("engine.append_p50_us", "us", "lower", DELTA),
    m("engine.compactions", "count", "lower", DELTA),
    m("engine.shard_merge_ns_per_answer", "ns", "lower", SHARD),
    m("engine.shard_n1_overhead_ratio", "ratio", "lower", SHARD),
    m("server.parse_us", "us", "lower", PAGES),
    m("server.session_us", "us", "lower", PAGES),
    m("server.encode_ns_per_answer", "ns", "lower", PAGES),
    m("server.frame_us", "us", "lower", PAGES),
    m("server.transport_us", "us", "lower", PAGES),
    m("server.select_p50_us", "us", "lower", PAGES),
    m("server.page_p50_us", "us", "lower", PAGES),
    m("server.two_cpu_answers_per_s", "answers/s", "higher", PAGES),
    m("server.write_p50_us", "us", "lower", DELTA),
    m("alloc.per_answer", "count", "lower", ALLOC),
    m("alloc.bytes_per_answer", "bytes", "lower", ALLOC),
    m("alloc.drain_per_answer", "count", "lower", ALLOC),
    m("alloc.drain_bytes_per_answer", "bytes", "lower", ALLOC),
    m("bench.rounds", "count", "higher", SELF),
    m("bench.round_iqr_ratio", "ratio", "lower", SELF),
    m("bench.host_ref_us", "us", "lower", SELF),
    m("bench.host_mem_ns", "ns", "lower", SELF),
    m("bench.ladder_residual_ratio", "ratio", "lower", SELF),
    m("bench.trace_overhead_ratio", "ratio", "lower", SELF),
    m("bench.ttf_p95_us", "us", "lower", SELF),
    m("bench.ttk_p95_us", "us", "lower", SELF),
    m("bench.peak_rss_mb", "MiB", "lower", SELF),
];

/// The unit of a metric by name (both tables).
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|e| (e.name, e.unit))
        .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
