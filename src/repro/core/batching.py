"""Batched hot path: interned signatures and memoized base optimization.

The per-query serving path spends its time in three places: binding,
signature computation (gain cache + clustering), and the *base*
optimization that opens every what-if session.  A replayed production
stream is massively repetitive -- the same query shapes arrive again
and again -- so all three are memoizable **without changing a single
decision**:

* :class:`SignatureInterner` computes each query's structural signature
  once (identity-keyed, so replaying the same query object is a dict
  hit) and interns equal signatures to one tuple object.
* :func:`bind_batch` binds a batch against the catalog with
  signature-keyed reuse: structurally identical queries share one bound
  copy, so the interner's identity-keyed fast path hits for free.
* :class:`BatchedPricer` wraps any :class:`~repro.backend.base.Backend`
  and memoizes :meth:`~repro.backend.base.Backend.begin_query` -- the
  dominant per-query optimizer invocation -- under the key rule of
  :mod:`repro.core.memo` that the gain cache shares: query structural
  signature, relevant-configuration signature, and per-table
  statistics tokens.  A hit can only serve a result the backend would
  recompute identically (the optimizer is deterministic in those three
  inputs), which is what lets the differential and property tests
  demand bit-identical decision streams between batched and unbatched
  runs.

What is *not* memoized: anything behind the profiler's RNG (probation
sampling order), budget accounting, or ``WhatIfOptimizer.call_count``
-- the ledger still charges every probe, exactly as the gain cache's
"hits are charged, calls are not" budget semantics established.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backend.base import Backend, WhatIfSession
from repro.core.gaincache import query_signature
from repro.core.memo import DEFAULT_MAX_ENTRIES, LruMemo, stats_tokens
from repro.engine.catalog import Catalog
from repro.optimizer.access import IndexConfig
from repro.optimizer.optimizer import OptimizationResult, PlanCache
from repro.sql.ast import Query
from repro.sql.binder import bind_query

__all__ = ["BatchedPricer", "SignatureInterner", "bind_batch"]


class SignatureInterner:
    """Compute-once, share-everything query signatures.

    Two layers of reuse:

    * identity: the signature of a query *object* is computed once
      (replay streams cycle the same objects, so this is the common
      hit);
    * structure: equal signatures from distinct objects are interned to
      a single tuple, so hash-heavy consumers (gain cache keys, pricer
      memo keys) compare and hash one shared object.

    The interner holds strong references to the queries it has seen --
    that is what makes the ``id()`` fast path sound (a dead object's id
    can be reused; a live one's cannot).  Call :meth:`clear` between
    unrelated streams.
    """

    def __init__(self) -> None:
        self._by_id: Dict[int, Tuple[Query, Tuple, int]] = {}
        self._interned: Dict[Tuple, Tuple] = {}
        self._index: Dict[Tuple, int] = {}
        # Never reset, even by clear(): signature indices are unique
        # for the interner's whole lifetime, so a consumer that keys a
        # cache by index and misses a clear() can only miss, never
        # silently alias two distinct signatures.
        self._next_index = 0

    def __len__(self) -> int:
        return len(self._interned)

    def signature(self, query: Query) -> Tuple:
        """The (interned) structural signature of ``query``."""
        return self.signature_index(query)[0]

    def signature_index(self, query: Query) -> Tuple[Tuple, int]:
        """``(signature, index)`` for ``query``.

        The index is a small integer unique to the signature's
        *structure*: equal signatures share one index, distinct ones
        never do.  Hash-heavy consumers key their memos by it instead
        of the (large, hash-uncached) signature tuple, turning every
        probe into an int hash.  Indices are never reused, even across
        :meth:`clear`.
        """
        hit = self._by_id.get(id(query))
        if hit is not None and hit[0] is query:
            return hit[1], hit[2]
        sig = query_signature(query)
        sig = self._interned.setdefault(sig, sig)
        index = self._index.get(sig)
        if index is None:
            index = self._next_index
            self._next_index += 1
            self._index[sig] = index
        self._by_id[id(query)] = (query, sig, index)
        return sig, index

    def clear(self) -> None:
        """Drop all memoized signatures (and the query references)."""
        self._by_id.clear()
        self._interned.clear()
        self._index.clear()


def bind_batch(
    queries: Sequence[Query],
    catalog: Catalog,
    interner: Optional[SignatureInterner] = None,
) -> List[Query]:
    """Bind a batch of queries with signature-keyed reuse.

    Equivalent to ``[bind_query(q, catalog) for q in queries]`` (the
    binder is a pure function of query structure and catalog), except
    that structurally identical queries share one bound object.  Sharing
    is deliberate: the interner's identity-keyed fast path then hits
    without recomputing anything.

    Raises:
        repro.sql.binder.BindError: exactly when the per-query loop
            would, on the first offending query.
    """
    interner = interner if interner is not None else SignatureInterner()
    bound_by_sig: Dict[Tuple, Query] = {}
    out: List[Query] = []
    for query in queries:
        sig = interner.signature(query)
        bound = bound_by_sig.get(sig)
        if bound is None:
            bound = bind_query(query, catalog)
            bound_by_sig[sig] = bound
        out.append(bound)
    return out


class _MemoEntry:
    __slots__ = ("base", "cache")

    def __init__(self, base: OptimizationResult, cache: PlanCache) -> None:
        self.base = base
        self.cache = cache


class BatchedPricer(Backend):
    """Decision-preserving ``begin_query`` memo over any backend.

    Args:
        inner: The real backend answering optimizer requests.
        interner: Shared signature interner (one per stream); a private
            one is created when omitted.
        max_entries: Memo capacity; least-recently-used keys are
            evicted beyond it.

    The memo follows the :mod:`repro.core.memo` key rule: ``(interned
    signature index, relevant-config signature, per-table stats
    tokens)``, rebuilt at every lookup, so a materialization change or
    statistics bump can never serve a stale base result; at worst it
    misses.  Backends with a :meth:`~repro.backend.base.Backend.
    config_token` also store each entry under the coarser exact key
    ``(signature index, config token)``: while *nothing* the optimizer
    sees has changed, that key hits without building the fine one.
    Both keys count against ``max_entries``.  On a hit the stored
    :class:`~repro.optimizer.optimizer.OptimizationResult` and the
    *warmed* per-query :class:`~repro.optimizer.optimizer.PlanCache`
    are reused, so the session's subsequent what-if probes also start
    from cached sub-plans.  Everything else delegates to ``inner``
    unchanged.
    """

    def __init__(
        self,
        inner: Backend,
        interner: Optional[SignatureInterner] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        self.inner = inner
        self.interner = interner if interner is not None else SignatureInterner()
        self._memo = LruMemo(max_entries)
        # (config_token, current_config): one config recompute per
        # backend state change instead of one per fine-key build.
        self._config_cache: Optional[Tuple[tuple, IndexConfig]] = None
        self.hits = 0
        self.misses = 0
        self._m_hits = None
        self._m_misses = None

    # -- delegation ----------------------------------------------------
    @property
    def capabilities(self):
        return self.inner.capabilities

    @property
    def catalog(self) -> Catalog:
        return self.inner.catalog

    @property
    def optimizer(self):
        """The inner backend's plain optimizer (None for remote/replay)."""
        return getattr(self.inner, "optimizer", None)

    def current_config(self) -> IndexConfig:
        return self.inner.current_config()

    def optimize(self, query, config=None, session=None, cache=None):
        return self.inner.optimize(
            query, config=config, session=session, cache=cache
        )

    def get_cost(self, query, config=None, session=None) -> float:
        return self.inner.get_cost(query, config=config, session=session)

    def relevant_config(self, query: Query, config: IndexConfig) -> IndexConfig:
        return self.inner.relevant_config(query, config)

    def simulate_index(self, index) -> None:
        self.inner.simulate_index(index)

    def drop_simulated_index(self, index) -> None:
        self.inner.drop_simulated_index(index)

    def simulated_indexes(self) -> IndexConfig:
        return self.inner.simulated_indexes()

    def stats_token(self, table: str):
        return self.inner.stats_token(table)

    def config_token(self):
        return self.inner.config_token()

    def refresh_stats(self, table: str) -> None:
        self.inner.refresh_stats(table)

    def bind_registry(self, registry) -> None:
        from repro.obs.names import REPLAY_METRICS

        self.inner.bind_registry(registry)
        self._m_hits = REPLAY_METRICS["replay_batch_memo_hits_total"].build(
            registry
        )
        self._m_misses = REPLAY_METRICS[
            "replay_batch_memo_misses_total"
        ].build(registry)

    # -- the memoized hot path -----------------------------------------
    def _fine_key(
        self, query: Query, index: int, token: Optional[tuple]
    ) -> Tuple:
        # Query-specific, so a config change that cannot affect this
        # query still hits.  With a token, the current config is
        # recomputed once per backend state change, not per lookup.
        if token is None:
            config = self.inner.current_config()
        else:
            cached = self._config_cache
            if cached is None or cached[0] != token:
                cached = (token, self.inner.current_config())
                self._config_cache = cached
            config = cached[1]
        relevant = self.inner.relevant_config(query, config)
        csig = frozenset((ix.table, ix.columns) for ix in relevant)
        return index, csig, stats_tokens(self.inner.stats_token, query.tables)

    def begin_query(self, query: Query) -> WhatIfSession:
        """Open a what-if session, serving the base result from the memo
        when an exact key proves it identical."""
        index = self.interner.signature_index(query)[1]
        token = self.inner.config_token()
        coarse = None if token is None else (index, token)
        entry = None if coarse is None else self._memo.get(coarse)
        hit = entry is not None
        if not hit:
            key = self._fine_key(query, index, token)
            entry = self._memo.get(key)
            hit = entry is not None
            if not hit:
                session = self.inner.begin_query(query)
                entry = _MemoEntry(session.base, session.cache)
                self._memo.put(key, entry)
            if coarse is not None:
                self._memo.put(coarse, entry)
        if hit:
            self.hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()
        else:
            self.misses += 1
            if self._m_misses is not None:
                self._m_misses.inc()
        return WhatIfSession(query=query, base=entry.base, cache=entry.cache)

    def begin_queries(self, queries: Iterable[Query]) -> List[WhatIfSession]:
        """Warm the memo for a whole batch (sessions in batch order).

        Duplicates inside the batch collapse to one base optimization;
        the replay driver calls this per chunk so the per-query loop
        that follows runs entirely on hits.
        """
        return [self.begin_query(q) for q in queries]
