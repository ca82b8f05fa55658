#!/usr/bin/env python3
"""benchmarks/e2e — the served-request benchmark.

One run = one workload against one fresh ``python -m repro serve``
child over one freshly built index::

    python3 benchmarks/e2e/run.py --workload long_tail --seed 7 \\
        --seconds 20 --trace 0

prints a human-readable report and, as the **last line** of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload is run
``--repeat`` times (default 3) and the run-to-run spread of each
end-to-end metric is checked against its bound.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog                                           # noqa: E402
import harness                                           # noqa: E402
import spans                                             # noqa: E402
import streams                                           # noqa: E402
from estimators import (median, percentile,              # noqa: E402
                        slice_medians, slice_samples)
from wire import (ClosedLoopClient, Connection, Reply,   # noqa: E402
                  Request, encode_request, one_shot)

OUT = HERE / "out"

CLIENTS = 2                 # == nproc on the sizing box; closed loop
WARMUP_CONNECTIONS = 16     # == the server's http_workers
SLICE_SECONDS = 5.0         # latency percentiles and throughput
CPU_SLICE_SECONDS = 2.0     # server CPU per request: more, shorter slices
INGEST_GROUPS = 4           # the backlog drain, cut by match count
RAW_INDEX = streams.RAW_INDEX
HOT_CLICKS = 8              # feedback concentrates on this many queries
CLICKS_PER_QUERY = 3        # == the server's --feedback-min-support


class Sizes:
    """How big one run is.  The measured phases scale with
    ``--seconds``; everything else is fixed work."""

    def __init__(self, seconds: float, smoke: bool) -> None:
        self.seconds = seconds
        self.base_matches = 10 if smoke else 12
        self.warmup = 96 if smoke else 400
        self.sample = 48 if smoke else 200
        self.slices = max(2, round(seconds / SLICE_SECONDS))
        self.slice_seconds = seconds / self.slices
        self.cpu_slices = max(2, round(seconds / CPU_SLICE_SECONDS))
        scale = seconds / catalog.RUN_SECONDS
        self.paced = max(3, round(16 * scale))
        self.backlog = max(6, round(32 * scale))
        self.replay_matches = 2 if smoke else 6


class Shared:
    """One request stream drawn by several client threads: a lock
    around ``next`` keeps the generator single-threaded, so whatever
    the interleaving, the server sees exactly the seeded sequence and
    ``long_tail`` never repeats a query across clients."""

    def __init__(self, stream: Iterator[Request]) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def __iter__(self) -> "Shared":
        return self

    def __next__(self) -> Request:
        with self._lock:
            return next(self._stream)


class Tally:
    """attempted / failed per operation type."""

    def __init__(self) -> None:
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.details: List[str] = []

    def attempt(self, kind: str, count: int = 1) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + count

    def fail(self, kind: str, detail: str, count: int = 1) -> None:
        self.failed[kind] = self.failed.get(kind, 0) + count
        if len(self.details) < 10:
            self.details.append(f"{kind}: {detail}")

    def absorb(self, client: ClosedLoopClient) -> None:
        for kind, count in client.attempted.items():
            self.attempt(kind, count)
        for kind, count in client.errors.items():
            self.fail(kind, client.error_detail or "error", count)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


# ----------------------------------------------------------------------
# what the streams draw from, read off the built index (untimed prep)
# ----------------------------------------------------------------------

def read_vocabulary(directory: Path, corpus) -> streams.Vocabulary:
    from repro.core.fields import F
    from repro.search import load_index
    from repro.search.analysis.analyzer import StandardAnalyzer
    players = sorted({entry.name for crawled in corpus.crawled
                      for entries in crawled.lineups.values()
                      for entry in entries})
    teams = sorted({team for crawled in corpus.crawled
                    for team in crawled.teams})
    with load_index(directory, RAW_INDEX) as index:
        narration_terms = sorted(index.terms(F.NARRATION))
        known = frozenset(
            term for field_name in (F.EVENT, F.SUBJECT_PLAYER,
                                    F.OBJECT_PLAYER, F.NARRATION)
            for term in index.terms(field_name))
    return streams.Vocabulary(players, teams, narration_terms, known,
                              StandardAnalyzer().terms)


def learnable_clicks(directory: Path, seed: int,
                     vocabulary: streams.Vocabulary
                     ) -> Tuple[List[Tuple[str, str]],
                                List[Tuple[str, str]]]:
    """``(slang, clicks)``: the jargon words spell correction cannot
    touch (nothing known within two edits), and for each of
    ``HOT_CLICKS`` of them ``CLICKS_PER_QUERY`` (query, doc key) pairs
    — a user typing the jargon and clicking the top hit of the event
    it stands for, for three different players."""
    from repro.core.retrieval import KeywordSearchEngine
    from repro.search import load_index
    from repro.search.query.extras import edit_distance
    slang = [(word, event) for word, event in streams.SLANG
             if all(edit_distance(word, term, 2) > 2
                    for term in vocabulary.known_terms)][:HOT_CLICKS]
    rng = random.Random(seed)
    clicks: List[Tuple[str, str]] = []
    with load_index(directory, RAW_INDEX) as index:
        engine = KeywordSearchEngine(index)
        for word, event in slang:
            found = 0
            for player in rng.sample(vocabulary.players,
                                     len(vocabulary.players)):
                hits = engine.search(f"{event} {player}", limit=1)
                if hits:
                    clicks.append((f"{word} {player.lower()}",
                                   hits[0].doc_key))
                    found += 1
                    if found == CLICKS_PER_QUERY:
                        break
    return slang, clicks


def make_stream(workload: str, seed: int, vocabulary: streams.Vocabulary,
                slang, clicks) -> Iterator[Request]:
    if workload == "hot_head":
        return streams.hot_head(seed, vocabulary)
    if workload == "facade_mix":
        return streams.facade_mix(seed, vocabulary, slang, clicks)
    return streams.long_tail(seed, vocabulary)


def priming(workload: str, seed: int, vocabulary: streams.Vocabulary,
            clicks) -> List[Request]:
    """Fixed requests sent once ahead of the warm-up stream: the whole
    ``hot_head`` universe (so the byte cache holds every entry before
    the window), the clicks that carry ``facade_mix``'s learned
    expansions over ``--feedback-min-support``."""
    if workload == "hot_head":
        return [streams.search_request(query, raw=True)
                for query in streams.hot_universe(random.Random(seed),
                                                  vocabulary)]
    if workload == "facade_mix":
        return [streams.feedback_request(query, doc_key)
                for query, doc_key in clicks]
    return []


def ingest_payloads(seed: int, count: int) -> List[dict]:
    """``count`` never-seen matches in wire form, each with one extra
    colour line carrying a token unique to the match — what the
    visibility check searches for."""
    from repro.serve.ingest import match_to_json
    corpus = harness.ingest_corpus(seed, count)
    payloads = []
    for number, crawled in enumerate(corpus.crawled):
        payload = match_to_json(crawled)
        payload["narrations"].append({
            "minute": 90, "event_id": None,
            "text": f"Full time, match report {marker(seed, number)}."})
        payloads.append(payload)
    return payloads


def marker(seed: int, number: int) -> str:
    return f"ref{seed}x{number}"


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

def warm_up(server: harness.Server, stream: Iterator[Request],
            primer: List[Request], sizes: Sizes, tally: Tally) -> None:
    """Fixed work: the primer, then ``sizes.warmup`` requests of the
    stream — over many connections at once, because at baseline every
    keep-alive reply stalls ~44 ms whatever the server did for it."""
    requests = Shared(itertools.chain(primer, stream))
    each = -(-(len(primer) + sizes.warmup) // WARMUP_CONNECTIONS)
    pool = [ClosedLoopClient(server.port, requests, count=each)
            for _ in range(WARMUP_CONNECTIONS)]
    for client in pool:
        client.start()
    for client in pool:
        client.join()
        tally.absorb(client)


def delta(after: Dict[str, float], before: Dict[str, float],
          name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_layers(before: Dict[str, float], after: Dict[str, float],
                   client_mean_s: float, searches: int,
                   rss_growth_kb: float, generator_cpu_s: float,
                   wall_s: float, gap_s: float, requests: int
                   ) -> Dict[str, float]:
    """The per-layer metrics that come from ``/metrics`` and ``/proc``
    deltas around the untraced window."""
    def moved(name: str) -> float:
        return delta(after, before, name)

    handler_ms = 1e3 * ratio(
        moved('serve_request_seconds_sum{endpoint="search"}'),
        moved('serve_request_seconds_count{endpoint="search"}'))
    response_hits = moved("serve_response_cache_hits_total")
    result_hits = moved("query_cache_hits_total")
    postings_hits = moved("postings_cache_hits_total")
    ingested = moved("serve_ingest_seconds_count")
    kreq = searches / 1e3
    return {
        "serve.handler_ms": handler_ms,
        "serve.http_overhead_ms": 1e3 * client_mean_s - handler_ms,
        "serve.response_cache_hit_ratio": ratio(
            response_hits, response_hits
            + moved("serve_response_cache_misses_total")),
        "serve.queue_depth_max": max(
            before.get("serve_queue_depth", 0.0),
            after.get("serve_queue_depth", 0.0)),
        "serve.rejected": moved("serve_rejected_total"),
        "search.searcher.cache_hit_ratio": ratio(
            result_hits, result_hits + moved("query_cache_misses_total")),
        "search.searcher.coalesced_per_kreq": ratio(
            moved("query_cache_coalesced_total"), kreq),
        "search.topk.postings_scanned_per_req": ratio(
            moved("query_postings_scanned_total"), searches),
        "search.topk.candidates_scored_per_req": ratio(
            moved("query_candidates_scored_total"), searches),
        "search.topk.pruned_per_req": ratio(
            moved("query_pruned_total"), searches),
        "search.topk.segments_searched_per_req": ratio(
            moved("query_segments_searched_total"), searches),
        "search.topk.segments_pruned_per_req": ratio(
            moved("query_segments_pruned_total"), searches),
        "search.index.postings_cache_hit_ratio": ratio(
            postings_hits,
            postings_hits + moved("postings_cache_misses_total")),
        "search.index.postings_cache_evictions_per_kreq": ratio(
            moved("postings_cache_evictions_total"), kreq),
        "serve.rss_growth_kb_per_kreq": ratio(rss_growth_kb, kreq),
        "serve.ingest.seconds_per_match": ratio(
            moved("serve_ingest_seconds_sum"), ingested),
        "serve.ingest.commit_s_per_match": ratio(
            moved("serve_ingest_commit_seconds_total"), ingested),
        "serve.ingest.failed": moved("serve_ingest_failures_total"),
        "loadgen.cpu_share": ratio(generator_cpu_s, wall_s),
        "loadgen.late_ms": 1e3 * ratio(gap_s, requests),
    }


def search_samples(pool: List[ClosedLoopClient]
                   ) -> List[Tuple[float, float]]:
    return [(finished, latency) for client in pool
            for kind, finished, latency in client.samples
            if kind == "search"]


def read_window(server: harness.Server, stream: Iterator[Request],
                sizes: Sizes, seed: int, tally: Tally
                ) -> Tuple[Dict[str, float], Dict[str, float],
                           List[Reply]]:
    """The timed window of a read workload: ``CLIENTS`` closed-loop
    keep-alive callers for ``sizes.seconds``.  Returns (end-to-end
    values measured here, counter-derived layer values, kept replies)."""
    span = int(sizes.seconds * 20)
    rng = random.Random(seed)
    hwm_kb, rss_kb = server.memory_kb()      # fixed-work checkpoint
    before = server.metrics()
    own_before = time.process_time()
    start = time.perf_counter()
    deadline = start + sizes.seconds
    pool = [ClosedLoopClient(
        server.port, stream,
        should_stop=lambda: time.perf_counter() >= deadline,
        keep=frozenset(rng.sample(range(span),
                                  min(span, sizes.sample // CLIENTS))))
        for _ in range(CLIENTS)]
    cpu_marks = [server.cpu_seconds()]
    for client in pool:
        client.start()
    cpu_slice = sizes.seconds / sizes.cpu_slices
    for number in range(1, sizes.cpu_slices + 1):  # one mark per slice
        time.sleep(max(0.0, start + number * cpu_slice
                       - time.perf_counter()))
        cpu_marks.append(server.cpu_seconds())
    for client in pool:
        client.join()
    wall = time.perf_counter() - start
    own = time.process_time() - own_before
    after = server.metrics()
    rss_after_kb = server.memory_kb()[1]
    for client in pool:
        tally.absorb(client)

    samples = search_samples(pool)
    sliced = slice_medians(samples, start, sizes.slice_seconds,
                           sizes.slices)
    completed = [len(latencies) for latencies in slice_samples(
        samples, start, cpu_slice, sizes.cpu_slices)]
    requests = sum(len(client.samples) for client in pool)
    end_to_end = {
        "search_p50_ms": 1e3 * sliced["p50"],
        "search_p95_ms": 1e3 * sliced["p95"],
        "search_qps": sliced["per_second"],
        "server_cpu_ms_per_req": 1e3 * median([
            (after_ - before_) / count for before_, after_, count
            in zip(cpu_marks, cpu_marks[1:], completed)]),
        "rss_mb": hwm_kb / 1024.0,
    }
    layers = counter_layers(
        before, after,
        client_mean_s=sum(latency for _, latency in samples)
        / len(samples),
        searches=len(samples), rss_growth_kb=rss_after_kb - rss_kb,
        generator_cpu_s=own, wall_s=wall,
        gap_s=sum(client.gap_seconds for client in pool),
        requests=requests)
    layers["p95_tail_samples"] = sliced["tail_samples"]
    return end_to_end, layers, [reply for client in pool
                                for reply in client.kept]


def confirm_visible(port: int, token: str, match_id: str) -> bool:
    """One raw ``/search`` for the match's unique token must return a
    document of that match."""
    status, body = one_shot(port, "POST", "/search", {
        "query": token, "index": RAW_INDEX, "limit": 5})
    if status != 200:
        return False
    return any(hit["doc_key"].startswith(match_id)
               for hit in json.loads(body)["hits"])


def wait_ingested(server: harness.Server, target: int,
                  seen: Dict[int, float], poll: float = 0.01,
                  timeout: float = 120.0) -> dict:
    """Poll ``/healthz`` until ``ingested + failed`` reaches
    ``target``; ``seen[n]`` is when the count was first seen at or
    beyond ``n``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ingest = server.healthz()["ingest"]
        done = ingest["ingested"] + ingest["failed"]
        now = time.perf_counter()
        for number in range(len(seen) + 1, done + 1):
            seen[number] = now
        if done >= target:
            return ingest
        time.sleep(poll)
    raise RuntimeError(f"ingest did not reach {target} matches within "
                       f"{timeout:.0f}s: {ingest}")


def ingest_window(server: harness.Server, stream: Iterator[Request],
                  payloads: List[dict], sizes: Sizes, seed: int,
                  tally: Tally
                  ) -> Tuple[Dict[str, float], Dict[str, float],
                             List[Reply]]:
    """``live_ingest``: one closed-loop search client runs throughout;
    the ingest client first posts ``sizes.paced`` matches one at a time
    (each timed POST → visible), then ``sizes.backlog`` back-to-back.
    The drain is cut into ``INGEST_GROUPS`` groups of equal match count
    and ``ingest_matches_per_s`` is the median of the groups' rates —
    the slice-median idea, sliced by work instead of by time."""
    encoded = [encode_request("POST", "/ingest", payload)
               for payload in payloads]
    match_ids = [payload["match_id"] for payload in payloads]
    stop = threading.Event()
    before = server.metrics()
    rss_kb = server.memory_kb()[1]
    cpu_before = server.cpu_seconds()
    own_before = time.process_time()
    searcher = ClosedLoopClient(server.port, stream,
                                should_stop=stop.is_set,
                                keep=range(sys.maxsize))
    start = time.perf_counter()
    searcher.start()
    fresh: List[float] = []
    seen: Dict[int, float] = {}     # commit count -> first seen at
    try:
        with Connection(server.port) as connection:
            def post(number: int) -> None:
                tally.attempt("ingest")
                status, body = connection.request(encoded[number])
                if status != 202:
                    tally.fail("ingest", f"HTTP {status}: {body[:200]!r}")

            for number in range(sizes.paced):
                posted = time.perf_counter()
                post(number)
                wait_ingested(server, number + 1, seen)
                if not confirm_visible(server.port,
                                       marker(seed, number),
                                       match_ids[number]):
                    tally.fail("ingest", f"{match_ids[number]} not "
                                         f"searchable after commit")
                fresh.append(time.perf_counter() - posted)
            paced_done = server.metrics()
            total = sizes.paced + sizes.backlog
            backlog_start = time.perf_counter()
            for number in range(sizes.paced, total):
                post(number)
            ingest = wait_ingested(server, total, seen, poll=0.05)
    finally:
        stop.set()
        searcher.join()
    wall = time.perf_counter() - start
    cpu = server.cpu_seconds() - cpu_before
    own = time.process_time() - own_before
    after = server.metrics()
    hwm_kb, rss_after_kb = server.memory_kb()  # last match committed
    tally.absorb(searcher)
    if ingest["failed"]:
        tally.fail("ingest", f"/healthz ingest.failed: "
                             f"{ingest['last_error']}", ingest["failed"])
    for number in range(sizes.paced, total):
        if not confirm_visible(server.port, marker(seed, number),
                               match_ids[number]):
            tally.fail("ingest", f"{match_ids[number]} never became "
                                 f"searchable")

    counts = [sizes.paced + round(number * sizes.backlog / INGEST_GROUPS)
              for number in range(INGEST_GROUPS + 1)]
    times = [backlog_start] + [seen[count] for count in counts[1:]]
    rates = [(counts[number + 1] - counts[number])
             / (times[number + 1] - times[number])
             for number in range(INGEST_GROUPS)]
    samples = search_samples([searcher])
    latencies = [latency for _, latency in samples]
    end_to_end = {
        "search_p50_ms": 1e3 * percentile(latencies, 0.50),
        "search_p95_ms": 1e3 * percentile(latencies, 0.95),
        "search_qps": len(samples) / wall,
        "server_cpu_ms_per_req": 1e3 * cpu / len(samples),
        "rss_mb": hwm_kb / 1024.0,
        "fresh_p50_s": median(fresh),
        "ingest_matches_per_s": median(rates),
    }
    layers = counter_layers(
        before, after, client_mean_s=sum(latencies) / len(latencies),
        searches=len(samples), rss_growth_kb=rss_after_kb - rss_kb,
        generator_cpu_s=own, wall_s=wall, gap_s=searcher.gap_seconds,
        requests=len(searcher.samples))
    layers["p95_tail_samples"] = float(
        len(latencies) - math.ceil(0.95 * len(latencies)))
    # what a paced match waited beyond its own processing: POST
    # round trip, queue hand-off, the poll that noticed the commit
    layers["serve.ingest.queue_wait_s"] = median(fresh) - ratio(
        delta(paced_done, before, "serve_ingest_seconds_sum"),
        delta(paced_done, before, "serve_ingest_seconds_count"))
    return end_to_end, layers, searcher.kept


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------

def check_raw_parity(directory: Path, replies: List[Reply],
                     tally: Tally) -> None:
    """Every kept raw-path reply must equal — doc keys *and* scores,
    exactly — an in-process ``KeywordSearchEngine.search`` on a fresh
    handle over the directory the server served."""
    from repro.core.retrieval import KeywordSearchEngine
    from repro.search import load_index
    with load_index(directory, RAW_INDEX) as index:
        engine = KeywordSearchEngine(index)
        for reply in replies:
            tally.attempt("parity")
            if reply.status != 200:
                tally.fail("parity", f"HTTP {reply.status}")
                continue
            served = [(hit["doc_key"], hit["score"])
                      for hit in json.loads(reply.body)["hits"]]
            expected = [(hit.doc_key, hit.score) for hit in
                        engine.search(reply.request.query,
                                      limit=streams.LIMIT)]
            if served != expected:
                tally.fail("parity", f"{reply.request.query!r}: served "
                                     f"{served[:2]} expected "
                                     f"{expected[:2]}")


def check_shapes(replies: List[Reply], tally: Tally) -> None:
    """Facade and live-index replies: 200, the documented shape, and
    ``corrected=true`` on every misspelled query."""
    for reply in replies:
        request = reply.request
        tally.attempt("shape")
        if reply.status != 200:
            tally.fail("shape", f"HTTP {reply.status}")
            continue
        payload = json.loads(reply.body)
        if request.kind == "feedback":
            if payload.get("recorded") is not True:
                tally.fail("shape", f"feedback not recorded: {payload}")
            continue
        wanted = {"query", "count", "hits"}
        if request.flavour:
            wanted |= {"original_query", "corrected", "phrasal",
                       "snippets"}
        if (not wanted <= payload.keys()
                or payload["count"] != len(payload["hits"])
                or (request.flavour and len(payload["snippets"])
                    != len(payload["hits"]))):
            tally.fail("shape", f"{request.query!r}: {sorted(payload)}")
        elif request.flavour == "misspelled" and not payload["corrected"]:
            tally.fail("shape", f"{request.query!r} not corrected")
        elif request.flavour == "phrasal" and not payload["phrasal"]:
            tally.fail("shape", f"{request.query!r} not routed phrasal")


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

class RunResult:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.end_to_end: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.tally = Tally()
        #: where the run's own wall time went: (phase, seconds)
        self.phases: List[Tuple[str, float]] = []
        self._mark = time.perf_counter()

    def phase(self, name: str) -> None:
        """Close the phase that just ended."""
        now = time.perf_counter()
        self.phases.append((name, now - self._mark))
        self._mark = now

    @property
    def seconds(self) -> float:
        return sum(seconds for _, seconds in self.phases)

    @property
    def correct(self) -> bool:
        return self.tally.total_failed == 0


def run_workload(workload: str, seed: int, sizes: Sizes,
                 trace: bool) -> RunResult:
    result = RunResult(workload, seed)
    tally = result.tally
    live = workload == "live_ingest"
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    directory = work / "index"
    server: Optional[harness.Server] = None
    try:
        corpus = harness.base_corpus(sizes.base_matches)
        payloads = (ingest_payloads(
            seed, sizes.paced + sizes.backlog + sizes.replay_matches)
            if live else [])
        result.phase("inputs")

        # -- set-up: empty dir -> first /healthz 200 -------------------
        setup_started = time.perf_counter()
        build = harness.build_index(corpus.crawled, directory)
        merge_s = harness.merge_index(directory)
        spawned = time.perf_counter()
        # maintenance is parked on live_ingest: IndexDirectory has no
        # writer lock, so a background merge racing the ingest commits
        # loses matches at random (README, "found at baseline")
        server = harness.Server(directory, work / "server.log",
                                maintenance_interval=3600 if live
                                else None)
        server.wait_healthy()
        healthy = time.perf_counter()
        result.end_to_end["setup_s"] = healthy - setup_started
        base = harness.directory_stats(directory)
        result.phase("setup")

        # -- untimed prep, warm-up -------------------------------------
        vocabulary = read_vocabulary(directory, corpus)
        slang, clicks = (learnable_clicks(directory, seed, vocabulary)
                         if workload == "facade_mix" else ([], []))
        stream = Shared(make_stream(workload, seed, vocabulary,
                                    slang, clicks))
        primer = priming(workload, seed, vocabulary, clicks)
        result.phase("prep")
        warm_up(server, stream, primer, sizes, tally)
        result.phase("warmup")

        # -- the timed window ------------------------------------------
        if live:
            measured, layers, kept = ingest_window(
                server, stream, payloads, sizes, seed, tally)
        else:
            measured, layers, kept = read_window(
                server, stream, sizes, seed, tally)
        result.end_to_end.update(measured)
        result.layers.update(layers)
        rejected = layers["serve.rejected"]
        if rejected:
            tally.fail("search", "connections shed with 503",
                       int(rejected))
        result.phase("window")
        server.stop()
        result.phase("stop")

        # -- after stop: disk, correctness -----------------------------
        final = harness.directory_stats(directory)
        if live:
            posted = payloads[:sizes.paced + sizes.backlog]
            narrations = sum(len(payload["narrations"])
                             for payload in posted)
            tally.attempt("ingest_doc_count")
            # TRAD and FULL_EXT hold exactly one document a narration
            for name in ("TRAD", "FULL_EXT"):
                expected = base["docs"][name] + narrations
                if final["docs"][name] != expected:
                    tally.fail("ingest_doc_count",
                               f"{name} holds {final['docs'][name]} "
                               f"docs, expected {expected}")
            result.layers["search.index.segments_final"] = float(
                final["segments"][RAW_INDEX])
            result.layers["search.index.merge_delta_s"] = \
                harness.merge_index(directory)
            final = harness.directory_stats(directory)
            check_shapes(kept, tally)
        else:
            # the batch path's view of the two ingest metrics (the same
            # MatchProcessor stages; no HTTP, no GIL shared with reads):
            # seconds per match, each match timed in two builds half a
            # minute apart — the set-up's and this one — and the faster
            # kept (interference only ever adds time); median of matches
            again = harness.build_index(corpus.crawled, work / "again")
            per_match = median([
                min(first, second) / harness.SEGMENT_SIZE
                for first, second in zip(build["chunk_s"],
                                         again["chunk_s"])])
            result.end_to_end["fresh_p50_s"] = per_match
            result.end_to_end["ingest_matches_per_s"] = 1.0 / per_match
            if workload == "facade_mix":
                check_shapes(kept, tally)
            else:
                check_raw_parity(directory, kept, tally)
        result.end_to_end["disk_kb_per_doc"] = (
            final["bytes"] / 1024.0 / sum(final["docs"].values()))
        result.layers.update({
            "core.pipeline.build_s": build["build_s"],
            "core.pipeline.seal_s": build["seal_s"],
            "reasoning.infer_s": build["infer_s"],
            "search.index.merge_s": merge_s,
            "serve.start_s": healthy - spawned,
            "search.index.segments": float(base["segments"][RAW_INDEX]),
        })

        result.phase("checks")

        # -- the traced run: in-process replay -------------------------
        if trace:
            traced_replay(result, work, directory, workload, seed,
                          sizes, vocabulary, slang, clicks, primer,
                          payloads)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
    result.phase("trace" if trace else "cleanup")
    return result


def traced_replay(result: RunResult, work: Path, directory: Path,
                  workload: str, seed: int, sizes: Sizes, vocabulary,
                  slang, clicks, primer: List[Request],
                  payloads: List[dict]) -> None:
    """Same seed, same stream: the first ``warmup`` requests replay
    untraced, the next ``sample`` traced."""
    from repro.search import load_index
    stream = make_stream(workload, seed, vocabulary, slang, clicks)
    prefix = primer + [next(stream) for _ in range(sizes.warmup)]
    sample = [next(stream) for _ in range(sizes.sample)]
    recorder = spans.replay_requests(directory, prefix, sample,
                                     work / "frames.bin")
    # per-layer values are per request of the mix, so they add up to
    # the mean handler time; coverage compares search requests only,
    # as serve.handler_ms does
    layers = result.layers
    for name, seconds in recorder.self_seconds().items():
        layers[name] = 1e3 * seconds / len(sample)
    search_roots = [record["end"] - record["start"]
                    for record in recorder.spans
                    if record["name"] == "serve.handle_search_ms"]
    layers["trace.coverage"] = ratio(
        1e3 * sum(search_roots) / len(search_roots),
        layers["serve.handler_ms"])

    started = time.perf_counter()
    index = load_index(directory, RAW_INDEX)
    layers["search.index.open_ms"] = 1e3 * (time.perf_counter()
                                            - started)
    started = time.perf_counter()
    index.refresh()                 # nothing new committed: the floor
    layers["search.index.refresh_ms"] = 1e3 * (time.perf_counter()
                                               - started)
    index.close()

    if workload == "live_ingest":
        ingest_recorder = spans.SpanRecorder()
        replayed = payloads[-sizes.replay_matches:]
        stages = spans.replay_ingest(directory, replayed,
                                     ingest_recorder)
        for name, seconds in ingest_recorder.self_seconds().items():
            layers[name] = 1e3 * seconds / len(replayed)
        layers["extraction.extract_ms"] = 1e3 * stages["extraction"]
        layers["population.populate_ms"] = 1e3 * (
            stages["populate_basic"] + stages["populate_full"])
        layers["reasoning.infer_ms"] = 1e3 * stages["inference"]
        layers["core.indexer.build_ms"] = 1e3 * sum(
            seconds for stage, seconds in stages.items()
            if stage.endswith("_index"))
        recorder.spans.extend(
            dict(record, request=f"ingest-{record['request']}")
            for record in ingest_recorder.spans)
    recorder.write(OUT / f"trace_{workload}.json")


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def environment() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.REPO_ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": commit,
            "REPRO_KERNELS": os.environ.get("REPRO_KERNELS")}


def report(result: RunResult, trace: bool) -> None:
    """Print one run, human-readable, and write its JSON summary."""
    tally = result.tally
    print(f"\n== {result.workload}  seed={result.seed}  "
          f"{result.seconds:.1f}s wall ==")
    print(f"{'metric':46} {'value':>12} {'unit':8} bound")
    for metric in catalog.END_TO_END:
        print(f"{metric.name:46} "
              f"{result.end_to_end[metric.name]:12.4f} "
              f"{metric.unit:8} {metric.bound:.2f} "
              f"({metric.better} is better)")
    for metric in catalog.PER_LAYER:
        if metric.name in result.layers:
            print(f"  {metric.name:44} "
                  f"{result.layers[metric.name]:12.4f} {metric.unit}")
    print("p95 has at least "
          f"{result.layers.get('p95_tail_samples', 0.0):.0f} samples "
          "beyond it in every slice")
    print("phases: " + "  ".join(f"{name} {seconds:.1f}s"
                                 for name, seconds in result.phases))
    for kind in sorted(tally.attempted):
        print(f"{kind:46} attempted {tally.attempted[kind]:7d}   "
              f"failed {tally.failed.get(kind, 0)}")
    for detail in tally.details:
        print(f"  FAILED {detail}")
    summary = {
        "workload": result.workload, "seed": result.seed,
        "trace": trace, "phases": dict(result.phases),
        "environment": environment(),
        "attempted": dict(tally.attempted),
        "failed": dict(tally.failed),
        "end_to_end": result.end_to_end,
        "per_layer": result.layers,
        "claim": None,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary_{result.workload}.json").write_text(
        json.dumps(summary, indent=2) + "\n")


def contract_line(result: RunResult, trace: bool) -> str:
    """The driver's last line: exactly ``correct``, ``attempted``,
    ``failed``, ``metrics``."""
    if trace:       # a layer the workload never enters reads 0
        values = {metric.name: result.layers.get(metric.name, 0.0)
                  for metric in catalog.PER_LAYER}
        listed = catalog.PER_LAYER
    else:
        values, listed = result.end_to_end, catalog.END_TO_END
    return json.dumps({
        "correct": result.correct,
        "attempted": result.tally.total_attempted,
        "failed": result.tally.total_failed,
        "metrics": {metric.name: {"value": values[metric.name],
                                  "unit": metric.unit}
                    for metric in listed}})


def spread_table(runs: Dict[str, List[RunResult]]) -> bool:
    """Per end-to-end metric and workload: the largest relative gap
    between run values, and between the medians of the two halves of
    the runs, against the metric's bound.  True when all hold."""
    held = True
    print(f"\n{'workload':12} {'metric':24} {'median':>10} "
          f"{'spread':>8} {'halves':>8} {'bound':>6}")
    for workload, results in runs.items():
        half = len(results) // 2
        for metric in catalog.END_TO_END:
            values = [run.end_to_end[metric.name] for run in results]
            middle = median(values)
            spread = (max(values) - min(values)) / middle
            halves = (abs(median(values[:half]) - median(values[half:]))
                      / middle if half else 0.0)
            ok = spread <= metric.bound and halves <= metric.bound
            held = held and ok
            print(f"{workload:12} {metric.name:24} {middle:10.4f} "
                  f"{spread:8.2%} {halves:8.2%} {metric.bound:6.2f}"
                  f"{'' if ok else '  EXCEEDED'}")
    return held


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [name for name, _ in catalog.WORKLOADS]
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS),
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also replay in-process with spans and "
                             "print the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=None,
                        help="runs per workload; more than one prints "
                             "the spread table and checks it against "
                             "the bounds (default: 1 with --workload, "
                             "else 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="10-match corpus, 5 s windows, every "
                             "workload once with tracing: every code "
                             "path in under a minute")
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro").is_dir():
        print(f"error: {harness.SRC / 'repro'} not found — run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    if args.smoke:
        args.seconds, args.trace, args.repeat = 5.0, 1, 1
    repeat = args.repeat or (1 if args.workload else 3)
    workloads = [args.workload] if args.workload else names
    sizes = Sizes(args.seconds, args.smoke)

    # a terminated runner must still reach the ``finally`` that stops
    # its server
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    harness.preflight()
    runs: Dict[str, List[RunResult]] = {name: [] for name in workloads}
    last: Optional[RunResult] = None
    for workload in workloads:
        for number in range(repeat):
            last = run_workload(workload, args.seed + number, sizes,
                                bool(args.trace))
            runs[workload].append(last)
            report(last, bool(args.trace))
            if last.layers["loadgen.cpu_share"] > 0.8:
                print("error: the load generator used more than 80% of "
                      "a core — run invalid", file=sys.stderr)
                return 3
    held = spread_table(runs) if repeat > 1 else True
    correct = all(run.correct for results in runs.values()
                  for run in results)
    print(json.dumps({"environment": environment(), "repeat": repeat,
                      "spread_within_bounds": held, "correct": correct,
                      "claim": None}))
    print(contract_line(last, bool(args.trace)))
    # a single run always exits 0 once it has a result line: whether
    # the outputs were correct is what ``correct`` / ``failed`` say
    checking = repeat > 1 or args.smoke
    return 1 if checking and not (held and correct) else 0


if __name__ == "__main__":
    raise SystemExit(main())
