"""Cross-query what-if gain cache (the incremental profiling pipeline).

COLT's dominant overhead is what-if optimization.  The per-query
:class:`~repro.optimizer.optimizer.PlanCache` already amortizes probes
*within* one query; this module amortizes them *across* queries: a gain
that is knowable without invoking the extended optimizer is served from
the cache, and the saved call never reaches
:attr:`~repro.optimizer.whatif.WhatIfOptimizer.call_count` (the quantity
the ledger charges per call).

The cache only ever serves values that are **provably identical** to
what the probe would return, which is what lets the differential harness
(``tests/core/test_gaincache_differential.py``) demand bit-identical
``BenefitH``/``BenefitM`` and chosen ``M`` between cache-on and
cache-off runs.  Two hit kinds qualify:

* **structural** -- the probed index's lead column is not referenced by
  any filter or join predicate of the query.  The optimizer's
  relevant-configuration restriction strips such an index before
  planning, so both sides of ``QueryGain = cost(M − {I}) − cost(M ∪
  {I})`` collapse to the same plan and the gain is exactly ``0.0``.
  Every query in a cluster shares its referenced-column set (the
  cluster key is built from exactly these columns), so this rule is the
  cluster-level zero-gain memo the clustering of §4.1 promises.
* **exact** -- a previous probe stored a gain under the same key:
  (query structural signature including literals, relevant-config
  signature, per-table statistics tokens, index).  The optimizer is
  deterministic in those inputs, so the replayed gain is the probe's.

The key follows the one validity rule of :mod:`repro.core.memo`: a
materialization change alters the relevant-config signature and every
stats-affecting catalog mutation alters the table's token, so a stale
gain can never match; entries leave only when the bounded LRU is full.

Budget semantics: a hit still consumes one ``#WI_lim`` unit in the
Profiler (so sampling decisions -- and therefore the collected gain
samples -- are identical with the cache on or off), but it is *free* on
the ledger: no what-if call is issued, no ``whatif_call_cost`` is
charged.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.core.memo import DEFAULT_MAX_ENTRIES, LruMemo, stats_tokens
from repro.engine.index import IndexDef
from repro.obs.names import GAINCACHE_METRICS
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.sql.ast import (
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    Query,
)


def _literal(value: object) -> Tuple[str, object]:
    # Type-tagged so 1 and 1.0 (equal, same hash) stay distinct keys.
    return type(value).__name__, value


def query_signature(query: Query) -> Tuple:
    """A hashable structural signature of a bound query, literals included.

    Two queries with equal signatures produce identical plans and costs
    under equal configurations and statistics: the signature covers
    every Query field the optimizer reads (tables, output list, filter
    predicates with operators and literal values, join conditions,
    grouping, ordering, limit).  Field order is preserved -- no
    normalization -- so signature equality is structural identity, the
    conservative choice for an exactness-critical cache.
    """
    filters: List[Tuple] = []
    for pred in query.filters:
        if isinstance(pred, ComparisonPredicate):
            filters.append(
                ("cmp", str(pred.column), pred.op.value, _literal(pred.value))
            )
        elif isinstance(pred, BetweenPredicate):
            filters.append(
                (
                    "between",
                    str(pred.column),
                    _literal(pred.low),
                    _literal(pred.high),
                )
            )
        elif isinstance(pred, InPredicate):
            filters.append(
                ("in", str(pred.column), tuple(_literal(v) for v in pred.values))
            )
        else:
            filters.append(("other", str(pred)))
    return (
        tuple(query.tables),
        tuple(str(item.expr) + (f" as {item.alias}" if item.alias else "") for item in query.select),
        tuple(filters),
        tuple(str(j.normalized()) for j in query.joins),
        tuple(str(c) for c in query.group_by),
        tuple((str(o.column), o.descending) for o in query.order_by),
        query.limit,
    )


def referenced_columns(query: Query) -> FrozenSet[Tuple[str, str]]:
    """(table, column) pairs referenced by filters or join predicates.

    This is the same set the optimizer's relevant-configuration
    restriction keys on, and (by construction of the cluster key) it is
    shared by every query of a cluster.
    """
    return frozenset(
        (c.table, c.column)
        for c in query.selection_columns() + query.join_columns()
    )


class GainCacheContext:
    """Per-query view of the cache (key parts computed once per query).

    Obtained from :meth:`GainCache.begin_query`; the Profiler calls
    :meth:`lookup` before each probe it is about to pay for and
    :meth:`store` after each probe it did pay for.
    """

    __slots__ = ("_cache", "_query", "_referenced", "_prefix")

    def __init__(self, cache: "GainCache", query: Query) -> None:
        self._cache = cache
        self._query = query
        self._referenced: Optional[FrozenSet[Tuple[str, str]]] = None
        self._prefix: Optional[Tuple] = None

    def _key(self, index: IndexDef) -> Tuple:
        if self._prefix is None:
            query = self._query
            whatif = self._cache._whatif
            self._prefix = (
                self._cache._signature(query),
                whatif.relevant_signature(query),
                stats_tokens(whatif.backend.stats_token, query.tables),
            )
        return self._prefix + ((index.table, index.columns),)

    def lookup(self, index: IndexDef) -> Optional[float]:
        """The exact gain a probe of ``index`` would return, if knowable.

        Returns None on a miss (the caller must probe for real).
        """
        cache = self._cache
        if self._referenced is None:
            self._referenced = referenced_columns(self._query)
        if (index.table, index.column) not in self._referenced:
            # Structural zero: the optimizer strips this index from the
            # relevant configuration, so the probe's two costs coincide.
            cache.hits_structural += 1
            cache._m_hits.inc(1, kind="structural")
            return 0.0
        gain = cache._memo.get(self._key(index))
        if gain is not None:
            cache.hits_exact += 1
            cache._m_hits.inc(1, kind="exact")
            return gain
        cache.misses += 1
        cache._m_misses.inc()
        return None

    def store(self, index: IndexDef, gain: float) -> None:
        """Record a real probe's result for future exact-key hits."""
        cache = self._cache
        if cache._memo.put(self._key(index), gain):
            cache.invalidations += 1
            cache._m_invalidations.inc(1, reason="capacity")
        cache.stores += 1
        cache._m_stores.inc()
        cache._m_entries.set(len(cache._memo))


class GainCache:
    """Cluster-level cross-query what-if gain cache.

    Args:
        whatif: The what-if optimizer; its backend supplies the
            relevant-config signatures and statistics tokens of keys.
        enabled: Master switch (``ColtConfig.gain_cache``); when False
            the Profiler never consults the cache.
        max_entries: LRU capacity; the least-recently-used entry is
            evicted on overflow (the only way an entry leaves).
        registry: Metrics registry for the ``gaincache_*`` families.

    Attributes:
        interner: Optional :class:`~repro.core.batching.SignatureInterner`;
            when set, keys use its dense signature index instead of the
            full signature tuple (see :meth:`Profiler.use_interner
            <repro.core.profiler.Profiler.use_interner>`).
        hits_structural / hits_exact / misses / stores: Plain counters
            mirroring the metric families, for tests and reports.
        invalidations: Entries evicted for capacity.
    """

    def __init__(
        self,
        whatif,
        enabled: bool = False,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._whatif = whatif
        self.enabled = enabled
        self.interner = None
        self._memo = LruMemo(max_entries)
        self.hits_structural = 0
        self.hits_exact = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0
        reg = registry or NULL_REGISTRY
        self._m_hits = GAINCACHE_METRICS["gaincache_hits_total"].build(reg)
        self._m_misses = GAINCACHE_METRICS["gaincache_misses_total"].build(reg)
        self._m_stores = GAINCACHE_METRICS["gaincache_stores_total"].build(reg)
        self._m_invalidations = GAINCACHE_METRICS[
            "gaincache_invalidations_total"
        ].build(reg)
        self._m_entries = GAINCACHE_METRICS["gaincache_entries"].build(reg)

    @property
    def hits(self) -> int:
        """Total gains served from the cache (both hit kinds)."""
        return self.hits_structural + self.hits_exact

    def __len__(self) -> int:
        return len(self._memo)

    def begin_query(self, query: Query) -> GainCacheContext:
        """Open a per-query cache view (key parts computed lazily, once)."""
        return GainCacheContext(self, query)

    def _signature(self, query: Query):
        """The query part of a key: interned index, else full signature."""
        if self.interner is None:
            return query_signature(query)
        return self.interner.signature_index(query)[1]
