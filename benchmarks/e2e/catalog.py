"""The benchmark's vocabulary: workloads, end-to-end metrics and
per-layer metrics, by the names later issues cite verbatim.

``BENCHMARK.json`` at the repository root is the projection of this
module the driver reads (``test_selftest.py`` keeps the two equal).
What the JSON schema has no room for lives only here: for every
per-layer metric, the end-to-end metrics it should move and the
workloads it should move them on — written down before measuring.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

__all__ = ["COMMAND", "PATHS", "RUN_SECONDS", "WORKLOADS", "END_TO_END",
           "PER_LAYER", "benchmark_json"]

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
RUN_SECONDS = 20

WORKLOADS: List[Tuple[str, str]] = [
    ("hot_head",
     "48-query zipf head on the raw path: response-bytes and result "
     "caches absorb everything below serve, isolating HTTP framing, "
     "accept queue and handler; engine work ~0"),
    ("long_tail",
     "raw path, every request a never-seen query: query-keyed caches "
     "and memos never hit, so parse, top-k, postings decode and stored "
     "fields do the work; memo growth shows in RSS"),
    ("facade_mix",
     "full application path: 70% keyword, 15% misspelled, 10% phrasal, "
     "5% feedback clicks; spell, phrasal routing, learned expansion, "
     "snippets, writes beside reads; never byte-cached"),
    ("live_ingest",
     "one long_tail search client beside one ingest client (paced, "
     "then backlog): the write path IE to refresh sharing one GIL "
     "with reads; maintenance parked"),
]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


#: Bounds are sized from the spreads this box shows between runs of
#: unchanged code (README, "Baseline"): at least twice the widest
#: quartile distance seen on any workload, capped at the contract's
#: 0.25.  Anything CPU-bound drifts by 10-25 % over minutes here, so
#: those metrics sit at the cap; the issue's tighter figures
#: (0.10-0.15) could not be held on any of three ten-seed studies.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("search_p50_ms", "ms", "lower", 0.20),
    EndToEnd("search_p95_ms", "ms", "lower", 0.25),
    EndToEnd("search_qps", "1/s", "higher", 0.20),
    EndToEnd("server_cpu_ms_per_req", "ms", "lower", 0.25),
    EndToEnd("rss_mb", "MB", "lower", 0.15),
    EndToEnd("disk_kb_per_doc", "kB", "lower", 0.02),
    EndToEnd("fresh_p50_s", "s", "lower", 0.25),
    EndToEnd("ingest_matches_per_s", "1/s", "higher", 0.25),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: end-to-end metrics this layer metric should move …
    moves: Tuple[str, ...]
    #: … and the workloads it should move them on
    at: Tuple[str, ...]


_ALL = tuple(name for name, _ in WORKLOADS)
_CPU_P50 = ("server_cpu_ms_per_req", "search_p50_ms")
_INGEST = ("fresh_p50_s", "ingest_matches_per_s")

PER_LAYER: List[PerLayer] = [
    # -- from /metrics and /proc deltas around the untraced window ----
    PerLayer("serve.handler_ms", "ms", "lower", _CPU_P50, _ALL),
    PerLayer("serve.http_overhead_ms", "ms", "lower",
             ("search_p50_ms", "search_qps"), _ALL),
    PerLayer("serve.response_cache_hit_ratio", "ratio", "higher",
             ("server_cpu_ms_per_req",), ("hot_head",)),
    PerLayer("serve.queue_depth_max", "count", "lower",
             ("search_p95_ms",), _ALL),
    PerLayer("serve.rejected", "count", "lower",
             ("search_p95_ms", "search_qps"), _ALL),
    PerLayer("search.searcher.cache_hit_ratio", "ratio", "higher",
             ("server_cpu_ms_per_req",), ("hot_head", "facade_mix")),
    PerLayer("search.searcher.coalesced_per_kreq", "1/kreq", "higher",
             ("server_cpu_ms_per_req",), ("hot_head", "facade_mix")),
    PerLayer("search.topk.postings_scanned_per_req", "count", "lower",
             ("server_cpu_ms_per_req",), ("long_tail",)),
    PerLayer("search.topk.candidates_scored_per_req", "count", "lower",
             ("server_cpu_ms_per_req",), ("long_tail",)),
    PerLayer("search.topk.pruned_per_req", "ratio", "higher",
             ("server_cpu_ms_per_req",), ("long_tail",)),
    PerLayer("search.topk.segments_searched_per_req", "count", "lower",
             ("server_cpu_ms_per_req",), ("long_tail", "live_ingest")),
    PerLayer("search.topk.segments_pruned_per_req", "count", "higher",
             ("server_cpu_ms_per_req",), ("long_tail", "live_ingest")),
    PerLayer("search.index.postings_cache_hit_ratio", "ratio", "higher",
             ("server_cpu_ms_per_req",), ("long_tail",)),
    PerLayer("search.index.postings_cache_evictions_per_kreq", "1/kreq",
             "lower", ("server_cpu_ms_per_req",), ("long_tail",)),
    PerLayer("serve.rss_growth_kb_per_kreq", "kB/kreq", "lower",
             ("rss_mb",), ("long_tail",)),
    PerLayer("serve.ingest.seconds_per_match", "s", "lower", _INGEST,
             ("live_ingest",)),
    PerLayer("serve.ingest.commit_s_per_match", "s", "lower", _INGEST,
             ("live_ingest",)),
    PerLayer("serve.ingest.queue_wait_s", "s", "lower",
             ("fresh_p50_s",), ("live_ingest",)),
    PerLayer("serve.ingest.failed", "count", "lower",
             ("ingest_matches_per_s",), ("live_ingest",)),
    PerLayer("loadgen.cpu_share", "ratio", "lower",
             ("search_qps",), _ALL),
    PerLayer("loadgen.late_ms", "ms", "lower", ("search_qps",), _ALL),
    # -- from the traced in-process replay: mean self time per request
    PerLayer("serve.handle_search_ms", "ms", "lower", _CPU_P50,
             ("hot_head", "long_tail", "facade_mix")),
    PerLayer("app.search_ms", "ms", "lower", _CPU_P50, ("facade_mix",)),
    PerLayer("search.spell.correct_ms", "ms", "lower", _CPU_P50,
             ("facade_mix",)),
    PerLayer("search.highlight.snippets_ms", "ms", "lower", _CPU_P50,
             ("facade_mix",)),
    PerLayer("core.feedback.expand_ms", "ms", "lower", _CPU_P50,
             ("facade_mix",)),
    PerLayer("core.feedback.record_ms", "ms", "lower", _CPU_P50,
             ("facade_mix",)),
    PerLayer("core.phrasal.search_ms", "ms", "lower", _CPU_P50,
             ("facade_mix",)),
    PerLayer("core.retrieval.search_ms", "ms", "lower", _CPU_P50,
             ("long_tail", "facade_mix")),
    PerLayer("search.query.build_ms", "ms", "lower", _CPU_P50,
             ("long_tail", "facade_mix")),
    PerLayer("search.analysis.analyze_ms", "ms", "lower", _CPU_P50,
             ("long_tail", "facade_mix")),
    PerLayer("search.searcher.search_ms", "ms", "lower", _CPU_P50,
             ("long_tail", "facade_mix")),
    PerLayer("search.index.postings_ms", "ms", "lower", _CPU_P50,
             ("long_tail",)),
    PerLayer("search.index.stored_doc_ms", "ms", "lower", _CPU_P50,
             ("long_tail", "facade_mix")),
    PerLayer("search.index.open_ms", "ms", "lower", ("setup_s",), _ALL),
    PerLayer("search.index.refresh_ms", "ms", "lower",
             ("setup_s", "fresh_p50_s"), ("live_ingest",)),
    PerLayer("core.pipeline.build_s", "s", "lower", ("setup_s",), _ALL),
    PerLayer("core.pipeline.seal_s", "s", "lower", ("setup_s",), _ALL),
    PerLayer("reasoning.infer_s", "s", "lower", ("setup_s",), _ALL),
    PerLayer("search.index.merge_s", "s", "lower", ("setup_s",), _ALL),
    PerLayer("serve.start_s", "s", "lower", ("setup_s",), _ALL),
    PerLayer("search.index.segments", "count", "lower",
             ("setup_s", "server_cpu_ms_per_req"), _ALL),
    PerLayer("serve.ingest.decode_ms", "ms", "lower", _INGEST,
             ("live_ingest",)),
    PerLayer("extraction.extract_ms", "ms", "lower", _INGEST,
             ("live_ingest",)),
    PerLayer("population.populate_ms", "ms", "lower", _INGEST,
             ("live_ingest",)),
    PerLayer("reasoning.infer_ms", "ms", "lower", _INGEST,
             ("live_ingest",)),
    PerLayer("core.indexer.build_ms", "ms", "lower", _INGEST,
             ("live_ingest",)),
    PerLayer("search.index.add_index_ms", "ms", "lower",
             _INGEST + ("disk_kb_per_doc",), ("live_ingest",)),
    PerLayer("search.index.merge_delta_s", "s", "lower",
             ("disk_kb_per_doc",), ("live_ingest",)),
    PerLayer("search.index.segments_final", "count", "lower",
             ("ingest_matches_per_s", "search_p50_ms"),
             ("live_ingest",)),
    PerLayer("trace.coverage", "ratio", "higher",
             ("server_cpu_ms_per_req",), ("long_tail", "facade_mix")),
]


def benchmark_json() -> Dict[str, object]:
    """Exactly what ``BENCHMARK.json`` must hold."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": metric.name, "unit": metric.unit,
                        "better": metric.better, "bound": metric.bound}
                       for metric in END_TO_END],
        "per_layer": [{"name": metric.name, "unit": metric.unit,
                       "better": metric.better}
                      for metric in PER_LAYER],
    }
