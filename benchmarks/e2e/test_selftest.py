"""Self-test of the benchmark's own machinery — no ``repro serve``, a
few seconds.  Not part of tier-1; run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_selftest.py -q
"""

from __future__ import annotations

import itertools
import json
import random
import re
import socket
import statistics
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog                                            # noqa: E402
import streams                                            # noqa: E402
from estimators import (median, percentile, slice_medians,  # noqa: E402
                        slice_samples)
from wire import Connection, encode_request, parse_response  # noqa: E402

# ----------------------------------------------------------------------
# estimators against a sorted-list oracle
# ----------------------------------------------------------------------


def oracle_percentile(values, q):
    """Smallest sample value with at least q·n of the sample ≤ it."""
    for candidate in sorted(values):
        if sum(1 for value in values if value <= candidate) \
                >= q * len(values):
            return candidate
    raise AssertionError("unreachable")


def test_percentile_and_median_match_the_oracle():
    rng = random.Random(1)
    for _ in range(200):
        values = [rng.choice((rng.random(), round(rng.random(), 1)))
                  for _ in range(rng.randrange(1, 60))]
        for q in (0.5, 0.9, 0.95, 0.99, 1.0):
            assert percentile(values, q) == oracle_percentile(values, q)
        assert median(values) == statistics.median(values)


def test_slice_medians_match_a_by_hand_grouping():
    rng = random.Random(2)
    start, width, slices = 100.0, 5.0, 4
    samples = [(start + rng.uniform(-1.0, 21.0), rng.random())
               for _ in range(3000)]
    by_hand = [[latency for finished, latency in samples
                if start + number * width <= finished
                < start + (number + 1) * width]
               for number in range(slices)]
    assert slice_samples(samples, start, width, slices) == by_hand
    result = slice_medians(samples, start, width, slices)
    assert result["p50"] == statistics.median(
        oracle_percentile(group, 0.5) for group in by_hand)
    assert result["p95"] == statistics.median(
        oracle_percentile(group, 0.95) for group in by_hand)
    assert result["per_second"] == statistics.median(
        len(group) / width for group in by_hand)
    # one burst slice moves the median of slices far less than it
    # moves the whole-window percentile
    burst = [(finished, latency + (10.0 if finished < start + width
                                   else 0.0))
             for finished, latency in samples]
    assert slice_medians(burst, start, width, slices)["p95"] < 1.5
    inside = [latency for finished, latency in burst
              if start <= finished < start + slices * width]
    assert percentile(inside, 0.95) > 10.0


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------

VOCABULARY = streams.Vocabulary(
    players=[f"Player{letter}{other}" for letter in "abcdefgh"
             for other in "klmnopqr"],
    teams=[f"Team {number}" for number in range(8)],
    narration_terms=[f"term{number}" for number in range(500)],
    known_terms=frozenset(
        f"player{letter}{other}" for letter in "abcdefgh"
        for other in "klmnopqr"),
    analyze=lambda text: text.lower().split())
CLICKS = [(f"{word} playerak", f"doc{number}")
          for number, (word, _) in enumerate(streams.SLANG[:8])]


def first(stream, count):
    return list(itertools.islice(stream, count))


def all_streams(seed):
    return {
        "hot_head": streams.hot_head(seed, VOCABULARY),
        "long_tail": streams.long_tail(seed, VOCABULARY),
        "facade_mix": streams.facade_mix(seed, VOCABULARY,
                                         streams.SLANG[:8], CLICKS),
    }


def test_same_seed_same_bytes_other_seed_other_bytes():
    for name in all_streams(0):
        one = [request.data for request in first(all_streams(7)[name], 600)]
        again = [request.data
                 for request in first(all_streams(7)[name], 600)]
        other = [request.data
                 for request in first(all_streams(8)[name], 600)]
        assert one == again, name
        assert one != other, name


def test_long_tail_never_repeats_a_query():
    queries = [request.query for request
               in first(streams.long_tail(3, VOCABULARY), 20000)]
    assert len(set(queries)) == len(queries)
    assert all(1 <= len(query.split()) for query in queries)


def test_hot_head_is_a_48_query_zipf_with_the_paper_at_the_head():
    requests = first(streams.hot_head(5, VOCABULARY), 20000)
    counts = {}
    for request in requests:
        counts[request.query] = counts.get(request.query, 0) + 1
    assert len(counts) == streams.HOT_UNIVERSE
    ranked = sorted(counts, key=counts.get, reverse=True)
    assert ranked[0] == streams.PAPER_QUERIES[0]
    assert set(ranked[:8]) <= set(streams.PAPER_QUERIES)
    # zipf s=1.1 over 48: the head query draws ~23 % of the traffic
    assert 0.19 < counts[ranked[0]] / len(requests) < 0.27


def test_facade_mix_shares_and_misspellings():
    requests = first(streams.facade_mix(9, VOCABULARY,
                                        streams.SLANG[:8], CLICKS), 8000)
    share = {flavour: sum(1 for request in requests
                          if (request.flavour or request.kind) == flavour)
             / len(requests)
             for flavour in ("tail", "misspelled", "phrasal", "feedback")}
    assert abs(share["tail"] - 0.70) < 0.03
    assert abs(share["misspelled"] - 0.15) < 0.02
    assert abs(share["phrasal"] - 0.10) < 0.02
    assert abs(share["feedback"] - 0.05) < 0.015
    for request in requests:
        payload = json.loads(request.data.partition(b"\r\n\r\n")[2])
        if request.kind == "search":
            assert "index" not in payload      # the facade path
        if request.flavour == "misspelled":
            typo = request.query.split()[0]
            assert typo not in VOCABULARY.known_terms
            assert any(_one_edit(typo, known)
                       for known in VOCABULARY.known_terms)


def _one_edit(first_word, second_word):
    if abs(len(first_word) - len(second_word)) > 1:
        return False
    if len(first_word) == len(second_word):
        differing = [index for index in range(len(first_word))
                     if first_word[index] != second_word[index]]
        if len(differing) == 1:
            return True
        return (len(differing) == 2
                and differing[1] == differing[0] + 1
                and first_word[differing[0]] == second_word[differing[1]]
                and first_word[differing[1]] == second_word[differing[0]])
    shorter, longer = sorted((first_word, second_word), key=len)
    return any(longer[:index] + longer[index + 1:] == shorter
               for index in range(len(longer)))


def test_paper_queries_are_the_repositorys_own():
    from repro.evaluation.queries import TABLE3_QUERIES, TABLE6_QUERIES
    assert streams.PAPER_QUERIES == [
        query.keywords for query in (*TABLE3_QUERIES, *TABLE6_QUERIES)]


# ----------------------------------------------------------------------
# the minimal HTTP reader
# ----------------------------------------------------------------------

def reply(body: bytes, status: bytes = b"200 OK") -> bytes:
    return (b"HTTP/1.1 " + status + b"\r\nServer: canned\r\n"
            b"Content-Type: application/json\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)


def test_parse_response_incomplete_then_complete():
    whole = reply(b'{"a": 1}') + reply(b"", b"503 Service Unavailable")
    for cut in range(len(reply(b'{"a": 1}'))):
        assert parse_response(whole[:cut]) is None
    status, body, rest = parse_response(whole)
    assert (status, body) == (200, b'{"a": 1}')
    assert parse_response(rest) == (503, b"", b"")


def test_keep_alive_reader_two_replies_in_one_buffer_and_split_header():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    third = reply(b'{"third": true}')
    cut = third.index(b"Content-Length") + 9     # mid header name
    request = encode_request("POST", "/search", {"query": "goal"})

    def canned():
        peer, _ = listener.accept()
        received = 0

        def await_requests(count):
            nonlocal received
            while received < count * len(request):
                received += len(peer.recv(65536))

        with peer:
            await_requests(1)
            # both replies at once: the second waits in the buffer
            peer.sendall(reply(b'{"first": 1}') + reply(b'{"second": 2}'))
            await_requests(3)
            peer.sendall(third[:cut])
            threading.Event().wait(0.05)
            peer.sendall(third[cut:])

    thread = threading.Thread(target=canned, daemon=True)
    thread.start()
    assert request.startswith(b"POST /search HTTP/1.1\r\n")
    with Connection(listener.getsockname()[1], timeout=5.0) as connection:
        assert connection.request(request) == (200, b'{"first": 1}')
        assert connection.request(request) == (200, b'{"second": 2}')
        assert connection.request(request) == (200, b'{"third": true}')
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    listener.close()


# ----------------------------------------------------------------------
# BENCHMARK.json lint
# ----------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_catalog_and_within_the_contract():
    path = HERE.parents[1] / "BENCHMARK.json"
    assert path.stat().st_size <= 64 * 1024
    benchmark = json.loads(path.read_text())
    assert benchmark == catalog.benchmark_json()
    assert set(benchmark) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert 1 <= benchmark["run_seconds"] <= 60
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128

    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in benchmark[section]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in benchmark["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(metric for metric in benchmark["end_to_end"]
                 if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"]
                                 for metric in benchmark["end_to_end"])
    assert all(part == "benchmarks/e2e" or not part.startswith("/")
               for part in benchmark["command"])


def test_every_per_layer_metric_names_what_it_should_move_and_where():
    end_to_end = {metric.name for metric in catalog.END_TO_END}
    workloads = {name for name, _ in catalog.WORKLOADS}
    for metric in catalog.PER_LAYER:
        assert metric.moves and set(metric.moves) <= end_to_end, metric
        assert metric.at and set(metric.at) <= workloads, metric
