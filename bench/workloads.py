"""Seeded request streams for the four workloads.

Everything the server sees is generated here from ``--seed``: the same
seed gives byte-identical HTTP requests and arrival schedules.  Random
choices that drive the amount of work (platform size, problem kind,
``include_schedule``) are dealt from shuffled fixed-proportion decks
instead of being drawn independently, so two seeds do statistically the
same work and a metric's spread across seeds reflects the machine, not
the luck of the draw.

The rates, latency limits and list lengths in :data:`WORKLOADS` are
constants of the benchmark (rates: 0.4 x the closed-loop capacity
measured on the seed commit, two significant digits).  A later change
must not recalibrate them.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.platform import generators
from repro.platform.graph import Platform
from repro.platform.serialization import platform_to_dict
from repro.problems import (
    AllToAllSpec,
    BroadcastSpec,
    GatherSpec,
    MasterSlaveSpec,
    MultiportSpec,
    ProblemSpec,
    ScatterSpec,
    SendOrReceiveSpec,
)
from repro.service.api import request_to_dict
from repro.service.broker import SolveRequest
from repro.service.fingerprint import topology_signature

OP_KINDS = ("read", "drift", "cold", "invalidate", "batch")
CHURN_HEAT_READS = 400
ZIPF_S = 1.0


@dataclass(frozen=True)
class Workload:
    """One frozen traffic mix.

    ``rate`` is the open-loop arrival rate (req/s) and ``limit_ms`` the
    latency limit that goes with it: the p90 an offered rate must meet to
    count as sustained in the sweep; requests over it are counted
    (``over_limit``).  ``closed_ops`` is the length of a run's closed-loop list
    (split evenly over the rounds), ``warmup_ops`` the requests drained
    before the first round, ``corpus`` the number of pre-solved requests
    reads are drawn from, and ``gate`` the path check that proves the run
    did the work it claims (it receives the per-reply flag counts of the
    measured phases).
    """

    name: str
    rate: float
    limit_ms: float
    closed_ops: int
    warmup_ops: int
    corpus: int
    why: str        # at most 160 characters: BENCHMARK.json quotes it
    gate_text: str
    gate: Callable[[Dict[str, int]], bool]

    def contract_why(self) -> str:
        """The sentence ``BENCHMARK.json`` carries for this workload."""
        return (f"{self.rate:g} req/s, p90 limit {self.limit_ms:g} ms: "
                f"{self.why}")


def _share(counts: Dict[str, int], key: str) -> float:
    return counts.get(key, 0) / max(1, counts.get("replies", 0))


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "hit_zipf", rate=230.0, limit_ms=50.0,
            closed_ops=3300, warmup_ops=1200, corpus=384,
            why="Zipf reads over 384 pre-solved requests, more than the "
                "near-cache and fewer than the shard caches hold: codecs, "
                "fingerprint, caches, ring and transport work, the LP rests",
            gate_text=">= 99% of replies are cached",
            gate=lambda c: _share(c, "cached") >= 0.99,
        ),
        Workload(
            "warm_drift", rate=30.0, limit_ms=250.0,
            closed_ops=448, warmup_ops=64, corpus=0,
            why="never-seen re-weightings of 16 fixed topologies, a dynamic "
                "platform: each misses both caches, patches a hot LP model "
                "and restarts the simplex from its basis",
            gate_text=">= 90% of replies are warm",
            gate=lambda c: _share(c, "warm") >= 0.90,
        ),
        Workload(
            "cold_unique", rate=20.0, limit_ms=250.0,
            closed_ops=280, warmup_ops=100, corpus=0,
            why="every request is a fresh topology, no cache or hot model "
                "helps: LP assembly, two-phase simplex, LU, tree packing and "
                "schedule reconstruction work on both shards",
            gate_text="<= 1% of replies are cached or warm",
            gate=lambda c: (_share(c, "cached") + _share(c, "warm")) <= 0.01,
        ),
        Workload(
            "churn_mixed", rate=50.0, limit_ms=100.0,
            closed_ops=720, warmup_ops=160, corpus=768,
            why="70% Zipf reads over a corpus larger than all caches, 15% "
                "drift, 5% cold, 5% invalidate, 5% batch: caches and ring "
                "take writes, evictions and invalidation scans",
            gate_text="all five op kinds answered",
            gate=lambda c: all(c.get("kind." + k, 0) > 0 for k in OP_KINDS),
        ),
    )
}


@dataclass
class Op:
    """One HTTP request and what is needed to check its reply."""

    kind: str    # traffic class, one of OP_KINDS
    form: str    # envelope: "solve", "batch" or "invalidate"
    wire: bytes
    requests: Tuple[SolveRequest, ...] = ()
    platform: Optional[Platform] = None  # what an invalidate names

    @property
    def body(self) -> bytes:
        """The JSON envelope, without the HTTP head."""
        return self.wire.split(b"\r\n\r\n", 1)[1]


@dataclass
class Round:
    """One measured round: an open-loop phase, then a closed-loop list."""

    open_ops: List[Op]
    open_due: List[float]
    closed_ops: List[Op]


@dataclass
class Plan:
    """Everything one run sends, generated before any clock starts."""

    workload: Workload
    open_seconds: float
    prime: List[Op] = field(default_factory=list)
    warmup: List[Op] = field(default_factory=list)
    rounds: List[Round] = field(default_factory=list)


# ----------------------------------------------------------------------
# deterministic randomness
# ----------------------------------------------------------------------
def _rng(seed: int, *tags: Any) -> random.Random:
    # str seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def _deck(rng: random.Random, cards: Sequence[Any]) -> Iterator[Any]:
    """Deal ``cards`` in shuffled order, reshuffling when exhausted."""
    while True:
        hand = list(cards)
        rng.shuffle(hand)
        yield from hand


def arrivals(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """Poisson arrival offsets in ``[0, seconds)``."""
    out: List[float] = []
    t = rng.expovariate(rate)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def zipf_sampler(rng: random.Random, n: int,
                 s: float = ZIPF_S) -> Callable[[], int]:
    """Draws 0-based ranks with probability proportional to 1/(rank+1)^s."""
    cumulative = list(itertools.accumulate(
        1.0 / (rank ** s) for rank in range(1, n + 1)))
    total = cumulative[-1]
    return lambda: bisect.bisect_left(cumulative, rng.random() * total)


# ----------------------------------------------------------------------
# HTTP encoding
# ----------------------------------------------------------------------
def http_post(envelope: Dict[str, Any]) -> bytes:
    body = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    head = (
        "POST /api HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


def solve_op(kind: str, request: SolveRequest) -> Op:
    return Op(kind, "solve", http_post({"op": "solve",
                               "request": request_to_dict(request)}),
              (request,))


def batch_op(kind: str, requests: Sequence[SolveRequest]) -> Op:
    return Op(kind, "batch", http_post({"op": "batch",
                               "requests": [request_to_dict(r)
                                            for r in requests]}),
              tuple(requests))


def invalidate_op(platform: Platform) -> Op:
    return Op("invalidate", "invalidate",
              http_post({"op": "invalidate",
                         "platform": platform_to_dict(platform)}),
              platform=platform)


# ----------------------------------------------------------------------
# request sources
# ----------------------------------------------------------------------
def _others(rng: random.Random, platform: Platform, root: str,
            count: int) -> Tuple[str, ...]:
    pool = sorted(n for n in platform.nodes() if n != root)
    return tuple(sorted(rng.sample(pool, count)))


class Corpus:
    """Pre-solved read traffic: small platforms, 70/20/10 master-slave /
    scatter / gather, a quarter asking for the schedule."""

    def __init__(self, rng: random.Random, size: int) -> None:
        sizes = _deck(rng, (5, 6, 7, 8, 9))
        kinds = _deck(rng, ["master-slave"] * 7 + ["scatter"] * 2
                      + ["gather"])
        schedule = _deck(rng, (True, False, False, False))
        self.requests: List[SolveRequest] = []
        seen = set()
        while len(self.requests) < size:
            platform = generators.random_connected(
                next(sizes), seed=rng.getrandbits(32))
            kind = next(kinds)
            if kind == "master-slave":
                spec: ProblemSpec = MasterSlaveSpec(platform=platform,
                                                    master="R0")
            elif kind == "scatter":
                spec = ScatterSpec(platform=platform, source="R0",
                                   targets=_others(rng, platform, "R0", 1))
            else:
                spec = GatherSpec(platform=platform, sink="R0",
                                  sources=_others(rng, platform, "R0", 1))
            request = SolveRequest.from_spec(
                spec, include_schedule=next(schedule))
            if request.fingerprint() not in seen:
                seen.add(request.fingerprint())
                self.requests.append(request)
        self.ops = [solve_op("read", r) for r in self.requests]

    def prime_ops(self, batch: int = 32) -> List[Op]:
        return [batch_op("read", self.requests[i:i + batch])
                for i in range(0, len(self.requests), batch)]


class DriftSource:
    """Never-seen re-weightings of 16 fixed topologies.

    A request multiplies each ``w``/``c`` of a member's *base* platform
    by k/8 (k in 6..10) with probability 1/4, so rationals stay bounded
    however long the stream runs.
    """

    #: (problem, nodes of ``random_connected`` or None for
    #: ``clustered(3, 4)``, generator seed): the six warm-capable
    #: problems dealt over the six shapes, generator seed = row number.
    #: The same for every --seed and not picked for how they behave: some
    #: re-solve in 4 ms whatever moved, some take 100 times that when the
    #: retained basis no longer fits (the workload's heavy tail).
    FAMILY = (
        ("master-slave", 8, 0), ("scatter", 9, 1), ("multiport", 10, 2),
        ("gather", 11, 3), ("send-or-receive", 12, 4),
        ("all-to-all", None, 5),
        ("master-slave", 9, 6), ("scatter", 10, 7), ("multiport", 11, 8),
        ("gather", 12, 9), ("send-or-receive", None, 10),
        ("all-to-all", 8, 11),
        ("master-slave", 10, 12), ("scatter", 11, 13),
        ("multiport", 12, 14), ("gather", None, 15),
    )
    FACTORS = tuple(Fraction(k, 8) for k in (6, 7, 8, 9, 10))
    SHARE = 0.25  # of the weights are drawn a factor in one request

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self.members: List[Tuple[Platform, Callable[[Platform],
                                                    ProblemSpec]]] = []
        for problem, nodes, seed in self.FAMILY:
            if nodes is None:
                base, root = generators.clustered(3, 4, seed=seed), "C0_0"
            else:
                base, root = generators.random_connected(nodes, seed=seed), "R0"
            picks = _others(random.Random(seed), base, root, 2)
            self.members.append((base, self._factory(problem, base, root,
                                                     picks)))
        self._order = _deck(rng, range(len(self.members)))
        # a re-weighting that moved nothing is the base platform again
        self._seen = {SolveRequest.from_spec(factory(base)).fingerprint()
                      for base, factory in self.members}

    @staticmethod
    def _factory(problem: str, base: Platform, root: str,
                 picks: Tuple[str, ...]) -> Callable[[Platform], ProblemSpec]:
        if problem == "master-slave":
            return lambda p: MasterSlaveSpec(platform=p, master=root)
        if problem == "scatter":
            return lambda p: ScatterSpec(platform=p, source=root,
                                         targets=picks)
        if problem == "gather":
            return lambda p: GatherSpec(platform=p, sink=root, sources=picks)
        if problem == "all-to-all":
            pair = (root, picks[0])
            return lambda p: AllToAllSpec(platform=p, participants=pair)
        if problem == "multiport":
            return lambda p: MultiportSpec(platform=p, master=root, ports=2)
        return lambda p: SendOrReceiveSpec(platform=p, master=root)

    def reweight(self, base: Platform) -> Platform:
        rng = self._rng
        out = Platform(base.name)
        for name in base.nodes():
            w = base.node(name).w
            if base.node(name).can_compute and rng.random() < self.SHARE:
                w = w * rng.choice(self.FACTORS)
            out.add_node(name, w)
        for edge in base.edges():
            c = edge.c
            if rng.random() < self.SHARE:
                c = c * rng.choice(self.FACTORS)
            out.add_edge(edge.src, edge.dst, c)
        return out

    def next_request(self) -> SolveRequest:
        while True:
            base, factory = self.members[next(self._order)]
            request = SolveRequest.from_spec(factory(self.reweight(base)))
            if request.fingerprint() not in self._seen:
                self._seen.add(request.fingerprint())
                return request

    def next_op(self) -> Op:
        return solve_op("drift", self.next_request())


class ColdSource:
    """Fresh topologies only: 60% master-slave on 8..14 nodes, 20%
    scatter on 6..8 nodes to 2 targets, 10% all-to-all (a pair) / gather
    on the same sizes, 10% broadcast on 5 nodes; a quarter of the
    schedulable ones ask for the schedule."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._kinds = _deck(rng, ["master-slave"] * 12 + ["scatter"] * 4
                            + ["all-to-all", "gather"] + ["broadcast"] * 2)
        self._ms_sizes = _deck(rng, (8, 9, 10, 11, 12, 13, 14))
        self._small_sizes = _deck(rng, (6, 7, 8))
        self._schedule = _deck(rng, (True, False, False, False))
        self._seen = set()

    def _build(self) -> SolveRequest:
        rng = self._rng
        kind = next(self._kinds)
        seed = rng.getrandbits(32)
        if kind == "broadcast":
            platform = generators.random_connected(
                5, extra_edge_prob=0.1, seed=seed)
            return SolveRequest.from_spec(
                BroadcastSpec(platform=platform, source="R0"))
        if kind == "master-slave":
            platform = generators.random_connected(
                next(self._ms_sizes), seed=seed)
            spec: ProblemSpec = MasterSlaveSpec(platform=platform,
                                                master="R0")
        else:
            platform = generators.random_connected(
                next(self._small_sizes), seed=seed)
            picks = _others(rng, platform, "R0", 2)
            if kind == "scatter":
                spec = ScatterSpec(platform=platform, source="R0",
                                   targets=picks)
            elif kind == "gather":
                spec = GatherSpec(platform=platform, sink="R0",
                                  sources=picks)
            else:
                spec = AllToAllSpec(platform=platform,
                                    participants=("R0", picks[0]))
        return SolveRequest.from_spec(
            spec, include_schedule=next(self._schedule))

    def next_request(self) -> SolveRequest:
        while True:
            request = self._build()
            # a repeated topology would be served warm, not cold
            key = (request.problem, topology_signature(request.platform))
            if key not in self._seen:
                self._seen.add(key)
                return request

    def next_op(self) -> Op:
        return solve_op("cold", self.next_request())


class ChurnSource:
    """The mixed stream: 70% reads, 15% drift, 5% cold, 5% invalidations
    of a top-32 platform and 5% batches of 8 corpus requests."""

    MIX = ["read"] * 14 + ["drift"] * 3 + ["cold", "invalidate", "batch"]

    def __init__(self, rng: random.Random, corpus: Corpus) -> None:
        self._corpus = corpus
        self._zipf = zipf_sampler(rng, len(corpus.requests))
        self._hot = lambda: rng.randrange(min(32, len(corpus.requests)))
        self._drift = DriftSource(rng)
        self._cold = ColdSource(rng)
        self._mix = _deck(rng, self.MIX)

    def read_op(self) -> Op:
        return self._corpus.ops[self._zipf()]

    def next_op(self) -> Op:
        kind = next(self._mix)
        if kind == "read":
            return self.read_op()
        if kind == "drift":
            return self._drift.next_op()
        if kind == "cold":
            return self._cold.next_op()
        if kind == "invalidate":
            return invalidate_op(
                self._corpus.requests[self._hot()].platform)
        return batch_op("batch", [self._corpus.requests[self._zipf()]
                                  for _ in range(8)])


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
def build_plan(name: str, seed: int, rounds: int, open_seconds: float,
               scale: float = 1.0,
               open_rates: Optional[Sequence[float]] = None) -> Plan:
    """Generate everything one run of ``name`` sends.

    ``scale`` shrinks the corpus, the warm-up and the closed-loop lists
    (the smoke run and the sweep); the contract runs use 1.0.
    ``open_rates`` gives each round its own arrival rate (the sweep's
    ladder) instead of the workload's frozen one.  Rounds consume
    disjoint segments of one seeded stream.
    """
    workload = WORKLOADS[name]
    rng = _rng(seed, name)
    plan = Plan(workload, open_seconds)
    corpus_size = max(64, int(workload.corpus * scale)) if workload.corpus \
        else 0
    if name == "hit_zipf":
        corpus = Corpus(rng, corpus_size)
        zipf = zipf_sampler(rng, corpus_size)
        plan.prime = corpus.prime_ops()
        next_op = lambda: corpus.ops[zipf()]  # noqa: E731
    elif name == "warm_drift":
        source = DriftSource(rng)
        # 8 per topology: each hot model gets built on both shards
        plan.prime = [source.next_op() for _ in range(8 * len(source.members))]
        next_op = source.next_op
    elif name == "cold_unique":
        next_op = ColdSource(rng).next_op
    elif name == "churn_mixed":
        corpus = Corpus(rng, corpus_size)
        source = ChurnSource(rng, corpus)
        # the near-cache admits a key only once it is hot, and throughput
        # climbs by a third until it holds the head: read the head in
        # before the mixed warm-up (a read costs a third of a mixed op)
        plan.prime = corpus.prime_ops() + [
            source.read_op() for _ in range(int(CHURN_HEAT_READS * scale))]
        next_op = source.next_op
    else:
        raise KeyError(name)
    closed = max(20, int(workload.closed_ops * scale) // rounds)
    plan.warmup = [next_op()
                   for _ in range(max(20, int(workload.warmup_ops * scale)))]
    for index in range(rounds):
        due = arrivals(rng, open_rates[index] if open_rates
                       else workload.rate, open_seconds)
        plan.rounds.append(Round(
            open_ops=[next_op() for _ in due],
            open_due=due,
            closed_ops=[next_op() for _ in range(closed)],
        ))
    return plan
