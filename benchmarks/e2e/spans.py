"""The traced run: spans recorded from outside, around each layer's
public calls.

After the server has stopped, the runner reopens the directory it
served and replays a seeded sample of the same request stream against
a ``ReproService`` started **inside the runner process**, with every
public method on the way down wrapped in a span.  The requests come
from a child process (``wire.py`` run as a script), one connection
each, strictly one at a time — so the service's handler threads never
overlap (one shared span stack is enough) and the client never holds
the runner's GIL while a handler runs.  The root span of a request is
the handler's own wall time, the very number the live server feeds
``serve_request_seconds``: ``observe_request`` is wrapped, and its
``seconds`` argument dates the root.  What no child span covers —
reading and decoding the body, framing and writing the response —
stays as the root's self time, so the per-layer numbers of one request
add up to what ``serve.handler_ms`` measures.

Spans live in memory and are written out once at the end; a layer's
**self time** is its span minus the part of that interval its children
cover.

``_SegmentView`` (the object the top-k driver fetches postings from)
has ``__slots__`` and cannot be wrapped per instance, so the postings
fetch is timed by a **probe** after the replay: a direct call to the
public ``SegmentedIndex.postings`` on a second handle, in request
order (its decoded-terms LRU sees the stream the server's saw).  Probe
spans carry ``probe: true`` and are left out of the coverage sum.
"""

from __future__ import annotations

import json
import struct
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from streams import RAW_INDEX

__all__ = ["SpanRecorder", "replay_requests", "replay_ingest"]


class SpanRecorder:
    """One span stack, used by one thread at a time; spans stay in
    memory.  A request is either scoped by :meth:`request` (direct
    calls) or closed after the fact by :meth:`close_request` (the
    served replay, where the handler reports its own duration)."""

    def __init__(self, skip: int = 0) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._first = 0             # first span of the open request
        #: requests still to let pass untraced (cache warm-up)
        self.skip = skip
        self.requests = 0

    @contextmanager
    def span(self, name: str, probe: bool = False,
             request: Optional[int] = None) -> Iterator[None]:
        if self.skip:
            yield
            return
        record = {"name": name,
                  "request": self.requests if request is None
                  else request,
                  "parent": self._stack[-1] if self._stack else None,
                  "probe": probe, "start": time.perf_counter(),
                  "end": None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def request(self) -> Iterator[None]:
        """Spans opened inside share one request id."""
        try:
            yield
        finally:
            self.requests += 1
            self._first = len(self.spans)

    def close_request(self, name: str, start: float, end: float) -> None:
        """End the open request with a root span ``[start, end]`` that
        adopts every parentless span recorded since the last close."""
        if self.skip:
            self.skip -= 1
            return
        root = len(self.spans)
        for record in self.spans[self._first:]:
            if record["parent"] is None:
                record["parent"] = root
        self.spans.append({"name": name, "request": self.requests,
                           "parent": None, "probe": False,
                           "start": start, "end": end})
        self.requests += 1
        self._first = len(self.spans)

    def wrap(self, owner: Any, method: str, name: str) -> None:
        """Replace ``owner.method`` (on the instance) by a version
        that runs inside a span called ``name``."""
        original = getattr(owner, method)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, method, traced)

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name (probes included, under
        their own names — they have no children and no parent)."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += (record["end"]
                                              - record["start"])
        totals: Dict[str, float] = {}
        for record, inside in zip(self.spans, covered):
            totals[record["name"]] = (
                totals.get(record["name"], 0.0)
                + record["end"] - record["start"] - inside)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"requests": self.requests, "spans": self.spans}) + "\n")


def _wrap_engine(recorder: SpanRecorder, engine: Any) -> None:
    from repro.core.fields import F
    recorder.wrap(engine, "search_detailed", "core.retrieval.search_ms")
    recorder.wrap(engine, "build_query", "search.query.build_ms")
    recorder.wrap(engine.searcher, "search", "search.searcher.search_ms")
    recorder.wrap(engine.searcher, "document",
                  "search.index.stored_doc_ms")
    recorder.wrap(engine.analyzer.for_field(F.NARRATION), "terms",
                  "search.analysis.analyze_ms")


def replay_requests(directory: Path, prefix: List[Any],
                    sample: List[Any], frames: Path
                    ) -> SpanRecorder:
    """Serve ``prefix`` untraced (cache warm-up, as the live server
    had) and ``sample`` traced from a ``ReproService`` over
    ``directory`` started in this process; a child process sends them
    through ``frames``, one connection each."""
    from repro.core.fields import F, SEARCHED_FIELDS
    from repro.search import load_index
    from repro.serve import ReproService, ServiceConfig

    recorder = SpanRecorder(skip=len(prefix))
    frames.write_bytes(b"".join(
        struct.pack(">I", len(request.data)) + request.data
        for request in [*prefix, *sample]))
    service = ReproService(ServiceConfig(index_dir=directory,
                                         maintenance=False))
    app = service.app
    recorder.wrap(app, "search", "app.search_ms")
    recorder.wrap(app, "feedback", "core.feedback.record_ms")
    recorder.wrap(app.spell, "correct_query", "search.spell.correct_ms")
    recorder.wrap(app.highlighter, "highlight_terms",
                  "search.highlight.snippets_ms")
    recorder.wrap(app.feedback_engine, "expand_query",
                  "core.feedback.expand_ms")
    recorder.wrap(app.phrasal_engine, "search", "core.phrasal.search_ms")
    # the probe's own analysis, taken before the wrap below
    analyze = service.engines[RAW_INDEX].analyzer.for_field(
        F.NARRATION).terms
    for engine in (service.engines[RAW_INDEX], app.engine,
                   app.phrasal_engine.engine):
        _wrap_engine(recorder, engine)
    # the client is strictly sequential, but it may send request n+1
    # while request n's worker is still between its last socket write
    # and ``observe_request``: handlers take this lock on entry and
    # the observation releases it, so span records never interleave
    turn = threading.Lock()
    for method in ("handle_search_bytes", "handle_feedback"):
        handler = getattr(service, method)

        def serialized(payload, handler=handler):
            turn.acquire()
            return handler(payload)

        setattr(service, method, serialized)
    observe = service.observe_request

    def observed(endpoint: str, status: int, seconds: float) -> None:
        now = time.perf_counter()
        recorder.close_request(f"serve.handle_{endpoint}_ms",
                               now - seconds, now)
        if turn.locked():
            turn.release()
        observe(endpoint, status, seconds)

    service.observe_request = observed
    service.start()
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("wire.py")),
             str(service.port), str(frames)], check=True)
    finally:
        service.stop()
    if recorder.requests != len(sample):
        raise RuntimeError(f"traced replay saw {recorder.requests} "
                           f"requests, sent {len(sample)}")

    with load_index(directory, RAW_INDEX) as probe_index:
        for number, request in enumerate(sample):
            if request.kind != "search":
                continue
            with recorder.span("search.index.postings_ms", probe=True,
                               request=number):
                for term in analyze(request.query):
                    for field_name in SEARCHED_FIELDS:
                        postings = probe_index.postings(field_name, term)
                        if postings is not None:
                            postings.doc_ids()
    return recorder


def replay_ingest(directory: Path, payloads: List[dict],
                  recorder: SpanRecorder) -> Dict[str, float]:
    """Run ``payloads`` through the ingest worker's exact steps —
    decode, ``MatchProcessor.process``, ``add_index`` × 5, refresh —
    against ``directory``, one request id per match.  Returns the
    per-match mean of ``MatchProcessor``'s own stage seconds."""
    from repro.core.parallel import MatchProcessor, MatchTask
    from repro.search import load_index
    from repro.search.index.directory import list_indexes
    from repro.serve.ingest import match_from_json

    indexes = {name: load_index(directory, name)
               for name in list_indexes(directory)}
    processor = MatchProcessor()
    stages: Dict[str, float] = {}
    try:
        for payload in payloads:
            with recorder.request():
                with recorder.span("serve.ingest.decode_ms"):
                    crawled = match_from_json(payload)
                with recorder.span("core.parallel.process_ms"):
                    partial = processor.process(
                        MatchTask(position=0, crawled=crawled))
                for stage, seconds in partial.stage_seconds.items():
                    stages[stage] = stages.get(stage, 0.0) + seconds
                with recorder.span("search.index.add_index_ms"):
                    for name, index in indexes.items():
                        index.directory.add_index(partial.indexes[name])
                with recorder.span("search.index.refresh_ms"):
                    for index in indexes.values():
                        index.refresh()
    finally:
        for index in indexes.values():
            index.close()
    return {stage: seconds / len(payloads)
            for stage, seconds in stages.items()}
