"""Seeded request streams: what each workload sends.

Every stream is an endless iterator of pre-encoded
:class:`~wire.Request` objects and a pure function of its seed and of
the vocabulary handed in — the server only ever sees what these
generators produce.  Nothing here touches a socket or imports the
system under test; the vocabulary (player names, team names, the
narration term dictionary, the spell-checker's known terms) is read
off the built corpus by the harness and passed in as plain data.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from typing import (Callable, Dict, FrozenSet, Iterator, List,
                    NamedTuple, Sequence, Tuple)

from wire import Request, encode_request

__all__ = ["EVENT_WORDS", "SLANG", "PAPER_QUERIES", "Vocabulary",
           "zipf_ranks", "hot_universe", "tail_queries", "hot_head",
           "long_tail", "facade_mix", "search_request",
           "feedback_request", "misspell"]

#: the event vocabulary the simulator narrates and the ontology labels
EVENT_WORDS = ["goal", "foul", "save", "corner", "offside",
               "yellow card", "red card", "punishment", "pass",
               "tackle", "substitution", "penalty", "free kick",
               "header", "shoot", "miss", "injury"]

#: fan jargon the index has never seen, each paired with the event
#: word whose hits a user clicks after typing it — the raw material of
#: learned (feedback) expansions.  Long compounds on purpose: nothing
#: in the corpus lies within two edits, so spell correction leaves
#: them alone and the learned expansion is what resolves them.
SLANG = [("netbuster", "goal"), ("hatchetjob", "foul"),
         ("shotstopper", "save"), ("flagkick", "corner"),
         ("linesmanflag", "offside"), ("spotkick", "penalty"),
         ("crunchtackle", "tackle"), ("thunderbastard", "shoot"),
         ("switcheroo", "substitution"), ("nodderdown", "header"),
         ("throughball", "pass"), ("physioroom", "injury")]

#: paper Table 3 (Q-1…Q-10) and Table 6 (P-1…P-3), verbatim — the
#: head of the ``hot_head`` zipf
PAPER_QUERIES = ["goal", "barcelona goal", "messi barcelona goal",
                 "punishment", "alex yellow card",
                 "goal scored to casillas", "henry negative moves",
                 "ronaldo", "save goalkeeper barcelona",
                 "shoot defence players", "foul by Daniel",
                 "foul by Daniel to florent",
                 "foul by florent to Daniel"]

HOT_UNIVERSE = 48
HOT_EXPONENT = 1.1
RAW_INDEX = "FULL_INF"
LIMIT = 10


class Vocabulary(NamedTuple):
    """What the streams draw from; read off the built corpus."""

    players: List[str]          # lineup display names
    teams: List[str]
    narration_terms: List[str]  # the narration field's term dictionary
    #: the facade spell-checker's vocabulary (analyzed terms)
    known_terms: FrozenSet[str]
    #: text -> analyzed terms, the spell-checker's own analyzer
    analyze: Callable[[str], List[str]]


def search_request(query: str, raw: bool, flavour: str = "") -> Request:
    payload: Dict[str, object] = {"query": query, "limit": LIMIT}
    if raw:
        payload["index"] = RAW_INDEX
    return Request("search", encode_request("POST", "/search", payload),
                   query, flavour)


def feedback_request(query: str, doc_key: str) -> Request:
    return Request("feedback", encode_request(
        "POST", "/feedback", {"query": query, "doc_key": doc_key}),
        query)


def zipf_ranks(rng: random.Random, size: int, exponent: float
               ) -> Iterator[int]:
    """Endless 0-based ranks with ``P(k) ∝ 1/(k+1)^exponent``."""
    cumulative = list(accumulate(1.0 / rank ** exponent
                                 for rank in range(1, size + 1)))
    total = cumulative[-1]
    while True:
        yield min(size - 1,
                  bisect_left(cumulative, rng.random() * total))


def hot_universe(rng: random.Random, vocabulary: Vocabulary
                 ) -> List[str]:
    """The 48 queries of ``hot_head``: the paper's own at the head,
    seeded ``player event`` pairs behind them."""
    universe = list(PAPER_QUERIES)
    pairs = [f"{player.lower()} {event}"
             for player in vocabulary.players for event in EVENT_WORDS]
    rng.shuffle(pairs)
    for pair in pairs:
        if len(universe) >= HOT_UNIVERSE:
            break
        if pair not in universe:
            universe.append(pair)
    return universe


def tail_queries(rng: random.Random, vocabulary: Vocabulary
                 ) -> Iterator[str]:
    """Endless **distinct** keyword queries over the corpus's own
    vocabulary: one to three of {player, team, event word}, and one
    query in three carries an extra term drawn uniformly from the
    narration term dictionary."""
    seen = set()
    sources = (vocabulary.players, vocabulary.teams, EVENT_WORDS)
    while True:
        width = rng.choices((1, 2, 3), weights=(1, 4, 5))[0]
        terms = [rng.choice(source).lower()
                 for source in rng.sample(sources, width)]
        if rng.randrange(3) == 0:
            terms.append(rng.choice(vocabulary.narration_terms))
        query = " ".join(terms)
        if query not in seen:
            seen.add(query)
            yield query


def hot_head(seed: int, vocabulary: Vocabulary) -> Iterator[Request]:
    rng = random.Random(seed)
    requests = [search_request(query, raw=True)
                for query in hot_universe(rng, vocabulary)]
    for rank in zipf_ranks(rng, len(requests), HOT_EXPONENT):
        yield requests[rank]


def long_tail(seed: int, vocabulary: Vocabulary) -> Iterator[Request]:
    for query in tail_queries(random.Random(seed), vocabulary):
        yield search_request(query, raw=True)


def _plain_players(vocabulary: Vocabulary) -> List[str]:
    """Single-word alphabetic names the spell-checker knows — the
    ones a one-edit typo of can be generated and verified."""
    return [player for player in vocabulary.players
            if player.isalpha() and len(player) >= 5
            and vocabulary.analyze(player) == [player.lower()]
            and player.lower() in vocabulary.known_terms]


def misspell(rng: random.Random, word: str,
             vocabulary: Vocabulary) -> str:
    """``word`` one edit away (drop, swap or replace a letter), such
    that the spell-checker does not know the result."""
    word = word.lower()
    while True:
        position = rng.randrange(1, len(word) - 1)
        edit = rng.randrange(3)
        if edit == 0:
            typo = word[:position] + word[position + 1:]
        elif edit == 1:
            typo = (word[:position - 1] + word[position]
                    + word[position - 1] + word[position + 1:])
        else:
            typo = (word[:position]
                    + rng.choice("abcdefghijklmnopqrstuvwxyz")
                    + word[position + 1:])
        terms = vocabulary.analyze(typo)
        if (typo != word and len(terms) == 1
                and terms[0] not in vocabulary.known_terms):
            return typo


#: one block of the facade mix: 70 % tail-style keyword, 15 %
#: misspelled, 10 % phrasal, 5 % feedback — exact in every 20 requests
#: (only the order inside a block is drawn), so no stretch of the
#: window is cheaper or dearer than another by the luck of the draw
FACADE_BLOCK = (["tail"] * 14 + ["misspelled"] * 3 + ["phrasal"] * 2
                + ["feedback"])


def facade_mix(seed: int, vocabulary: Vocabulary,
               slang: Sequence[Tuple[str, str]],
               clicks: Sequence[Tuple[str, str]]) -> Iterator[Request]:
    """Blocks of ``FACADE_BLOCK`` in seeded order: tail-style keyword
    queries (one in five typed in learned jargon), one-edit
    misspellings, phrasal queries, and feedback clicks on the hot
    ``clicks`` (query, doc key) pairs."""
    rng = random.Random(seed)
    tail = tail_queries(random.Random(seed + 1), vocabulary)
    plain = _plain_players(vocabulary)
    while True:
        for flavour in rng.sample(FACADE_BLOCK, len(FACADE_BLOCK)):
            if flavour == "tail":
                if slang and rng.randrange(5) == 0:
                    query = (f"{rng.choice(slang)[0]} "
                             f"{rng.choice(vocabulary.players).lower()}")
                else:
                    query = next(tail)
            elif flavour == "misspelled":
                query = (f"{misspell(rng, rng.choice(plain), vocabulary)}"
                         f" {rng.choice(EVENT_WORDS)}")
            elif flavour == "phrasal":
                subject, target = rng.sample(plain, 2)
                query = f"foul by {subject} to {target}"
            else:
                yield feedback_request(*rng.choice(clicks))
                continue
            yield search_request(query, raw=False, flavour=flavour)
