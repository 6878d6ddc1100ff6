"""Benchmark workloads, each a pure function of ``(seed, length)``.

A workload is the event stream one closed-loop client sends: it issues
the next event only when the previous call has returned.  Events are
``("q", query, client_id)`` for a query and ``("w", table, rows)`` for a
statistics-only insert batch.  The program under test receives nothing
but these generated events; the seed only shapes the inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.gaincache import query_signature
from repro.workload import build_catalog, multi_client_workload, shifting_workload
from repro.workload import stable_workload
from repro.workload.experiments import phase_distributions, stable_distribution

Event = Tuple[str, object, object]

#: Distinct queries in the ``stable-repeat`` base before it is cycled.
STABLE_BASE = 500
#: Queries per abrupt phase in ``shift-fast``.
SHIFT_PHASE = 50
#: Probability that a query in ``htap-bandit`` is followed by a write.
WRITE_PROBABILITY = 0.1
#: Rows per statistics-only insert batch in ``htap-bandit``.
WRITE_ROWS = 2000
#: Clients interleaved in the shared multi-client base.
CLIENTS = 2


@dataclasses.dataclass(frozen=True)
class Stream:
    """A generated event stream, with the input properties measured on it."""

    events: Tuple[Event, ...]

    @property
    def queries(self) -> List[object]:
        return [e[1] for e in self.events if e[0] == "q"]

    @property
    def client_ids(self) -> List[Optional[int]]:
        return [e[2] for e in self.events if e[0] == "q"]

    def properties(self) -> Dict[str, object]:
        """Measured input properties: repeats, writes, distinct signatures."""
        signatures = [query_signature(q) for q in self.queries]
        distinct = len(set(signatures))
        n_queries = len(signatures)
        writes = len(self.events) - n_queries
        return {
            "queries": n_queries,
            "writes": writes,
            "distinct_signatures": distinct,
            "repeat_share": (n_queries - distinct) / n_queries,
            "write_share": writes / len(self.events),
        }

    def signature_hash(self) -> str:
        """SHA-256 over the stream's query signatures and writes, in order."""
        digest = hashlib.sha256()
        for kind, a, b in self.events:
            item = (kind, query_signature(a), b) if kind == "q" else (kind, a, b)
            digest.update(repr(item).encode())
            digest.update(b"\n")
        return digest.hexdigest()


def _cycle(queries, length: int) -> List[object]:
    return [queries[i % len(queries)] for i in range(length)]


def _two_client_base(seed: int):
    """The ``replay`` CLI's base: two clients, each shifting between two
    Figure 4 phases (100-query phases, 20-query transitions)."""
    catalog = build_catalog()
    phases = phase_distributions()
    clients = [
        shifting_workload(
            [phases[i % len(phases)], phases[(i + 1) % len(phases)]],
            catalog,
            phase_length=100,
            transition=20,
            seed=seed + i,
        )
        for i in range(CLIENTS)
    ]
    return multi_client_workload(clients, seed=seed + 7)


def stable_repeat(seed: int, length: int) -> Stream:
    """A 500-query Figure 3 stable base, cycled.

    Chosen because most queries (over 80% at the benchmark's length)
    repeat an earlier one and COLT's profiling hibernates once the stable
    optimum is built: time goes to base optimization, profiling
    bookkeeping and epoch closes, which is where a cross-query cache or a
    cheaper cost formula would show.
    """
    base = stable_workload(stable_distribution(), STABLE_BASE, build_catalog(), seed=seed)
    return Stream(tuple(("q", q, None) for q in _cycle(base.queries, length)))


def shift_fast(seed: int, length: int) -> Stream:
    """Freshly sampled queries from the four Figure 4 phases, switching
    abruptly every 50 queries.

    Chosen because almost no query repeats and the optimum keeps moving:
    what-if probes, knapsack solves and index builds dominate, so a
    cache predicts no gain here while probe and scheduler work shows.
    """
    phases = phase_distributions()
    n_phases = math.ceil(length / SHIFT_PHASE)
    workload = shifting_workload(
        [phases[i % len(phases)] for i in range(n_phases)],
        build_catalog(),
        phase_length=SHIFT_PHASE,
        transition=0,
        seed=seed,
    )
    return Stream(tuple(("q", q, None) for q in workload.queries[:length]))


def htap_bandit(seed: int, length: int) -> Stream:
    """The two-client shifting base, cycled, with insert batches on the
    queried tables after about one query in ten.

    Chosen because it is the only workload that drives the C3-UCB
    bandit engine, and the writes bump statistics versions and move its
    maintenance-aware decisions.  No write follows the last query, so
    the final epoch close sees the final table sizes.
    """
    base = _two_client_base(seed)
    rng = random.Random(seed * 1_000_003 + 17)
    events: List[Event] = []
    queries = _cycle(base.queries, length)
    for i, query in enumerate(queries):
        events.append(("q", query, None))
        if i + 1 < length and rng.random() < WRITE_PROBABILITY:
            events.append(("w", rng.choice(sorted(query.tables)), WRITE_ROWS))
    return Stream(tuple(events))


def fleet_workers(seed: int, length: int) -> Stream:
    """The two-client shifting base, cycled, tagged with client ids for a
    two-worker fleet under client-affinity routing.

    Chosen because it is the only workload that crosses the router, the
    worker pipes, the fleet epoch barrier and fleet reorganization.
    """
    base = _two_client_base(seed)
    queries = _cycle(base.queries, length)
    clients = _cycle(base.client_ids, length)
    return Stream(tuple(("q", q, c) for q, c in zip(queries, clients)))


#: Generator per workload name.
GENERATORS: Dict[str, Callable[[int, int], Stream]] = {
    "stable-repeat": stable_repeat,
    "shift-fast": shift_fast,
    "htap-bandit": htap_bandit,
    "fleet-workers": fleet_workers,
}
