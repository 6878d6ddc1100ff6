"""The tuner shell: one serving loop behind every tuning engine.

COLT (:class:`~repro.core.colt.ColtTuner`) and the C³-UCB bandit
(:class:`~repro.bandit.tuner.BanditTuner`) serve queries the same way:
optimize the arriving query, observe it within a probe budget, decide at
the epoch boundary, then materialize the decision through the
:class:`~repro.core.scheduler.Scheduler`.  :class:`TunerShell` owns that
loop -- the construction wiring, ``run``/``process_query``/
``process_insert``, the scheduler protocol and the reporting surface --
and an engine subclass supplies only the steps that differ:

* ``_build_engine`` -- the engine's components, at least a ``profiler``
  carrying the circuit breaker and candidate tracker, plus the
  ``materialized`` and ``hot`` sets;
* ``_profile`` -- per-query observation *before* guardrail verification;
* ``_observe`` -- per-query observation *after* it, returning the
  engine's own probe spend;
* ``_probe_budget`` and ``_close_epoch`` -- the epoch's probe accounting,
  then learn-and-select at the boundary;
* ``_after_apply`` -- engine bookkeeping once the scheduler has applied
  a boundary's decisions;
* ``_note_insert`` -- the engine's view of an applied insert batch.

Optional hooks (``_open_session``, ``_count_query``, ``_count_epoch``,
``_build_metrics``) let an engine add steps or metrics of its own.  The
two engines keep their own per-query order through ``_profile`` and
``_observe``: COLT profiles before verification, the bandit prices its
rewards after it.

The returned :class:`QueryOutcome` is the simulation's ledger record:
the query's execution cost under the configuration in force, plus the
on-line tuning overheads attributable to it (probes this query, index
builds triggered at an epoch boundary it closed).
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.backend.base import Backend
from repro.backend.local import LocalBackend
from repro.core.scheduler import RetryReport, Scheduler, SchedulingPolicy
from repro.core.self_organizer import ReorganizationResult
from repro.engine.catalog import Catalog
from repro.engine.index import IndexDef
from repro.engine.storage import PhysicalStore
from repro.obs.dashboard import OverheadDashboard
from repro.obs.export import build_snapshot
from repro.obs.names import MetricSpec
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.optimizer.plan import PlanNode
from repro.optimizer.whatif import WhatIfOptimizer, WhatIfSession
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.sql.ast import Query

if TYPE_CHECKING:  # avoid repro.core <-> repro.guardrails import cycle
    from repro.guardrails.manager import GuardrailManager


@dataclasses.dataclass
class InsertOutcome:
    """Ledger record for a batch of inserts (write-aware extension).

    Attributes:
        table: Target table.
        count: Rows inserted.
        heap_cost: Cost of appending to the heap.
        maintenance_cost: Cost of keeping the table's materialized
            indexes up to date for these rows.
        total_cost: Sum of the above.
    """

    table: str
    count: int
    heap_cost: float
    maintenance_cost: float
    total_cost: float


@dataclasses.dataclass
class QueryOutcome:
    """Ledger record for one processed query.

    Attributes:
        index: 0-based position of the query in the stream.
        execution_cost: Optimizer cost of the chosen plan under the
            configuration in force when the query ran.
        whatif_calls: Probes spent on this query: what-if calls while
            profiling (COLT) or reward probes (bandit).
        whatif_overhead: Cost units charged for those probes.
        verify_calls: Guardrail verification probes spent on this query
            (0 with no guardrail manager attached).
        verify_overhead: Cost units charged for those probes (optimizer
            calls plus any shadow-execution charge).
        build_cost: Index build cost charged at the epoch boundary this
            query closed (0 otherwise).
        total_cost: Sum of the above -- the tuner-side response-time
            analogue the paper measures.
        plan: The executed plan (None for a failed query recorded in
            ``on_error="skip"`` mode).
        epoch_ended: Whether this query closed an epoch.
        reorganization: The engine's decisions, when an epoch ended.
        error: The exception that aborted this query, when it was
            recorded by :meth:`TunerShell.run` in ``"skip"`` mode; None
            for queries that processed normally.
    """

    index: int
    execution_cost: float
    whatif_calls: int
    whatif_overhead: float
    build_cost: float
    total_cost: float
    plan: Optional[PlanNode]
    verify_calls: int = 0
    verify_overhead: float = 0.0
    epoch_ended: bool = False
    reorganization: Optional[ReorganizationResult] = None
    error: Optional[BaseException] = None

    @property
    def failed(self) -> bool:
        """Whether this record stands in for a query that errored."""
        return self.error is not None


class TunerShell:
    """The serving loop shared by the tuning engines.

    Args:
        catalog: The catalog to tune.  Its materialized set is owned by
            the tuner from now on.
        config: The engine's parameters; defaults to
            ``config_class()``.
        store: Optional physical store; when given, materializations
            build real B+trees so queries can be executed.
        policy: Materialization scheduling policy.
        breaker: Circuit breaker guarding the engine's probes; defaults
            to a fresh one with standard thresholds.
        retry: Backoff policy for failed index builds.
        fault_injector: Optional fault injector; when given, its
            failpoints are installed on the what-if optimizer and the
            scheduler (testing and chaos runs).
        registry: Metrics registry shared by the tuner and its
            components; defaults to a fresh enabled one.  Pass
            ``MetricsRegistry(enabled=False)`` for a zero-overhead
            no-op registry.
        guardrails: Optional :class:`~repro.guardrails.manager.
            GuardrailManager` closing the predict->observe->act loop:
            per-query observed-cost verification, quarantine of
            over-promised indexes, and DBA pin/ban/prefer constraints
            on reorganization.  None (the default) changes nothing.
        backend: DBMS backend answering probes; defaults to a
            :class:`~repro.backend.local.LocalBackend` over ``catalog``
            (the in-python engine).  Must describe the same catalog.

    Attributes:
        engine: Engine tag (``"colt"`` or ``"bandit"``), the key that
            snapshots and fleet replicas dispatch on.
        tracer: Span tracer timing queries and epoch closes.
        dashboard: Per-epoch probe overhead accounting.
    """

    engine: str = ""
    #: The engine's configuration class, instantiated when no config
    #: is passed.
    config_class: type = object
    #: The engine's metric families, each named ``<engine>_<suffix>``
    #: and reachable in ``self._metrics`` by its suffix.
    metric_families: Dict[str, MetricSpec] = {}

    #: The engine's materialized set ``M`` and hot set ``H``.
    materialized: Set[IndexDef]
    hot: Iterable[IndexDef]

    def __init__(
        self,
        catalog: Catalog,
        config=None,
        store: Optional[PhysicalStore] = None,
        policy: SchedulingPolicy = SchedulingPolicy.IMMEDIATE,
        breaker: Optional[CircuitBreaker] = None,
        retry: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        registry: Optional[MetricsRegistry] = None,
        guardrails: Optional["GuardrailManager"] = None,
        backend: Optional[Backend] = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or self.config_class()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = SpanTracer(enabled=self.registry.enabled)
        self.dashboard = OverheadDashboard()
        self.backend = backend if backend is not None else LocalBackend(catalog)
        if self.backend.catalog is not catalog:
            raise ValueError("backend and tuner must share one catalog")
        self.backend.bind_registry(self.registry)
        self.optimizer = getattr(self.backend, "optimizer", None)
        self.whatif = WhatIfOptimizer(backend=self.backend)
        self._store = store
        self._build_engine(breaker)
        self.scheduler = Scheduler(
            catalog, store=store, policy=policy, retry=retry, registry=self.registry
        )
        if fault_injector is not None:
            fault_injector.attach(self)
        self._queries_seen = 0
        self._build_metrics()
        self.guardrails = guardrails
        if guardrails is not None:
            guardrails.attach(self)
        # Advisory soft preferences pushed down by an external adviser
        # (the fleet co-tuning controller); merged with guardrail
        # constraints at each epoch boundary, pins/bans winning.
        self._advisory: tuple = ()

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def _build_engine(self, breaker: Optional[CircuitBreaker]) -> None:
        """Construct the engine's components (``profiler`` at least)."""
        raise NotImplementedError

    def _build_metrics(self) -> None:
        """Register the engine's metric families and initial gauges."""
        cut = len(self.engine) + 1
        self._metrics = {
            name[cut:]: spec.build(self.registry)
            for name, spec in self.metric_families.items()
        }
        self._metrics["materialized_indexes"].set(len(self.materialized))

    def _open_session(self, query: Query) -> WhatIfSession:
        """Normally optimize ``query`` and open its what-if session."""
        return self.whatif.begin_query(query)

    def _profile(self, query: Query, session: WhatIfSession) -> None:
        """Observe the query before guardrail verification."""

    def _observe(self, session: WhatIfSession) -> Tuple[int, float]:
        """Observe the query after guardrail verification.

        Returns:
            (probes, cost charged) the engine spent outside the what-if
            optimizer's call counter.
        """
        return 0, 0.0

    def _count_query(
        self, session: WhatIfSession, whatif_calls: int, whatif_overhead: float
    ) -> None:
        """Fold one processed query into engine-specific metrics."""

    def _probe_budget(self) -> Tuple[int, int, int]:
        """This epoch's (requested, granted, spent) probes, for the
        dashboard; read before the epoch closes."""
        raise NotImplementedError

    def _close_epoch(self) -> ReorganizationResult:
        """Learn from the closing epoch and decide the next ``M``."""
        raise NotImplementedError

    def _after_apply(self, reorg: ReorganizationResult, retry: RetryReport) -> None:
        """Engine bookkeeping once a boundary's decisions are applied."""

    def _count_epoch(
        self, reorg: ReorganizationResult, build_cost: float, seconds: float
    ) -> None:
        """Fold one epoch boundary into engine-specific metrics."""

    def _note_insert(self, table: str, rows: int) -> None:
        """Feed an applied insert batch to the engine."""

    # ------------------------------------------------------------------
    def set_advisory(self, preferred) -> None:
        """Install advisory ``(IndexDef, weight)`` soft preferences.

        Used by the fleet's co-tuning loop to bias this replica's
        knapsack toward its workload partition.  The partition's
        footprint is also seeded into the candidate tracker so the
        engine can credit it without waiting for the miner.  Passing an
        empty sequence clears stale advice.
        """
        self._advisory = tuple(
            sorted(preferred, key=lambda kv: str(kv[0]))
        )
        self.profiler.candidates.seed(ix for ix, _ in self._advisory)

    @property
    def materialized_set(self) -> List[IndexDef]:
        """The current materialized set ``M``."""
        return sorted(self.materialized, key=str)

    @property
    def hot_set(self) -> List[IndexDef]:
        """The current hot set ``H``."""
        return sorted(self.hot, key=str)

    @property
    def queries_seen(self) -> int:
        """Number of queries processed so far."""
        return self._queries_seen

    @property
    def metrics(self) -> MetricsRegistry:
        """The tuner's metrics registry (shared with its components)."""
        return self.registry

    def metrics_snapshot(self) -> Dict:
        """Self-describing snapshot: metric families, overhead, spans."""
        return build_snapshot(
            self.registry.snapshot(),
            overhead=self.dashboard.to_rows(),
            spans=self.tracer.summary(),
        )

    # ------------------------------------------------------------------
    def process_query(self, query: Query) -> QueryOutcome:
        """Process one arriving (bound) query.

        Optimizes it under the current configuration, lets the engine
        observe it within its probe budget, verifies it against the
        guardrails, and -- when the query closes an epoch -- lets the
        engine decide and applies the decisions through the scheduler.

        Returns:
            The ledger record for the query.
        """
        with self.tracer.span("query", index=self._queries_seen):
            session = self._open_session(query)
            calls_before = self.whatif.call_count
            self._profile(query, session)

            verify_calls = 0
            verify_overhead = 0.0
            if self.guardrails is not None:
                # Verification probes re-optimize directly (bypassing
                # the what-if call counter), so probe accounting stays
                # untouched; their cost is charged here.
                verify_calls, verify_charge = self.guardrails.observe_query(
                    session, self.materialized
                )
                verify_overhead = (
                    verify_calls * self.config.whatif_call_cost + verify_charge
                )
            probe_calls, probe_charge = self._observe(session)

            self._queries_seen += 1
            build_cost = 0.0
            reorg: Optional[ReorganizationResult] = None
            epoch_ended = self._queries_seen % self.config.epoch_length == 0
            if epoch_ended:
                reorg, build_cost = self._end_epoch()

        whatif_calls = self.whatif.call_count - calls_before
        whatif_overhead = whatif_calls * self.config.whatif_call_cost + probe_charge
        whatif_calls += probe_calls
        self._metrics["queries_total"].inc()
        self._count_query(session, whatif_calls, whatif_overhead)
        return QueryOutcome(
            index=self._queries_seen - 1,
            execution_cost=session.base.cost,
            whatif_calls=whatif_calls,
            whatif_overhead=whatif_overhead,
            build_cost=build_cost,
            total_cost=session.base.cost
            + whatif_overhead
            + verify_overhead
            + build_cost,
            plan=session.base.plan,
            verify_calls=verify_calls,
            verify_overhead=verify_overhead,
            epoch_ended=epoch_ended,
            reorganization=reorg,
        )

    def _end_epoch(self) -> Tuple[ReorganizationResult, float]:
        """Close the epoch, apply its decisions, and account for both."""
        epoch = self._queries_seen // self.config.epoch_length - 1
        requested, granted, spent = self._probe_budget()
        started = time.perf_counter()
        with self.tracer.span("epoch_close", epoch=epoch):
            reorg = self._close_epoch()
            build_cost = self._apply(reorg)
        self._metrics["epochs_total"].inc()
        self._metrics["materialized_indexes"].set(len(self.materialized))
        self._count_epoch(reorg, build_cost, time.perf_counter() - started)
        self.dashboard.record(
            requested=requested,
            granted=granted,
            spent=spent,
            ratio=reorg.improvement_ratio,
            build_cost=build_cost,
            breaker_state=reorg.breaker_state,
        )
        return reorg, build_cost

    def _apply(self, reorg: ReorganizationResult) -> float:
        """Apply a boundary's decisions through the scheduler.

        Returns:
            The build cost charged at this boundary.
        """
        # Retry previously failed builds whose backoff elapsed, then
        # apply this boundary's fresh decisions.
        retry = self.scheduler.advance_epoch()
        build_cost = retry.charged
        materialized = self.materialized
        materialized.update(retry.recovered)
        materialized.update(reorg.materialize)
        materialized.difference_update(reorg.drop)
        build_cost += self.scheduler.request_materialization(reorg.materialize)
        self.scheduler.request_drop(reorg.drop)
        if self.guardrails is not None and reorg.drop:
            # Dropped indexes' verification evidence is stale by
            # definition; a re-materialized index re-earns its verdict.
            self.guardrails.on_drop(reorg.drop)
        # A failed build leaves the index unmaterialized: take it back
        # out of M so the engine sees reality, and surface it on the
        # ledger record.  Idle-policy requests are merely queued, not
        # failed.
        queued = set(self.scheduler.pending)
        failed = [
            ix
            for ix in reorg.materialize
            if not self.catalog.is_materialized(ix) and ix not in queued
        ]
        materialized.difference_update(failed)
        reorg.build_failures = failed
        reorg.recovered_builds = list(retry.recovered)
        reorg.abandoned_builds = list(retry.abandoned)
        reorg.breaker_state = self.profiler.breaker.state.value
        self._after_apply(reorg, retry)
        return build_cost

    def process_insert(self, table: str, rows=None, count: Optional[int] = None) -> InsertOutcome:
        """Process a batch of inserts (write-aware extension).

        The batch is charged a heap-append cost plus one maintenance
        charge per (row, materialized index on the table); the observed
        write volume is fed to the engine, which discounts indexes on
        write-hot tables accordingly.

        Args:
            table: Target table.
            rows: Concrete rows to insert.  Required when the tuner is
                attached to a physical store (heaps and trees are
                actually updated); optional in pure cost-model mode.
            count: Number of rows when ``rows`` is omitted (statistics-
                only insert).

        Returns:
            The ledger record for the batch.

        Raises:
            ValueError: if neither ``rows`` nor ``count`` is given, or
                if ``rows`` is omitted while a physical store is attached.
        """
        if rows is None and count is None:
            raise ValueError("provide rows or count")
        if self._store is not None:
            if rows is None:
                raise ValueError(
                    "a physical store is attached: concrete rows are required"
                )
            n = self._store.apply_inserts(table, rows)
        else:
            n = len(list(rows)) if rows is not None else int(count)
            self.catalog.apply_row_delta(table, n)
        self._note_insert(table, n)

        params = self.catalog.params
        n_indexes = len(self.catalog.materialized_indexes(table))
        heap_cost = n * params.cpu_tuple_cost
        maintenance = n * n_indexes * params.index_maintain_cost_per_tuple
        return InsertOutcome(
            table=table,
            count=n,
            heap_cost=heap_cost,
            maintenance_cost=maintenance,
            total_cost=heap_cost + maintenance,
        )

    def run(self, queries, on_error: str = "raise") -> List[QueryOutcome]:
        """Process a sequence of queries, returning all ledger records.

        Args:
            queries: Bound queries in arrival order.
            on_error: ``"raise"`` propagates the first failure
                (discarding nothing the caller already holds, but ending
                the run); ``"skip"`` records the failed query as a
                zero-cost :class:`QueryOutcome` carrying its exception
                and keeps going, so one bad query no longer discards all
                prior ledger records.

        Raises:
            ValueError: for an unknown ``on_error`` mode.
        """
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
        outcomes: List[QueryOutcome] = []
        for query in queries:
            seen_before = self._queries_seen
            try:
                outcomes.append(self.process_query(query))
            except Exception as exc:
                if on_error == "raise":
                    raise
                # Keep the epoch clock ticking for the failed arrival
                # unless process_query already counted it.
                if self._queries_seen == seen_before:
                    self._queries_seen += 1
                self._metrics["query_failures_total"].inc()
                outcomes.append(
                    QueryOutcome(
                        index=self._queries_seen - 1,
                        execution_cost=0.0,
                        whatif_calls=0,
                        whatif_overhead=0.0,
                        build_cost=0.0,
                        total_cost=0.0,
                        plan=None,
                        error=exc,
                    )
                )
        return outcomes
