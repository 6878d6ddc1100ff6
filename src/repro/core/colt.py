"""The COLT tuner: the paper's engine behind the shared serving loop.

:class:`ColtTuner` wires the Profiler and Self-Organizer into the
:class:`~repro.core.shell.TunerShell`, which owns the per-query loop,
the scheduler protocol and the ledger records.  COLT's own steps are
profiling each query within the epoch's what-if budget (before
guardrail verification), and, at an epoch boundary, reorganization and
re-budgeting.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.core.config import ColtConfig
from repro.core.profiler import Profiler
from repro.core.scheduler import RetryReport
from repro.core.self_organizer import ReorganizationResult, SelfOrganizer
from repro.core.shell import InsertOutcome, QueryOutcome, TunerShell
from repro.engine.index import IndexDef
from repro.guardrails.synthesis import synthesize_constraints
from repro.obs.names import TUNER_METRICS
from repro.optimizer.whatif import WhatIfSession
from repro.resilience.breaker import CircuitBreaker
from repro.sql.ast import Query

__all__ = ["ColtTuner", "InsertOutcome", "QueryOutcome"]


class ColtTuner(TunerShell):
    """Continuous on-line index tuning over a catalog.

    Takes the :class:`~repro.core.shell.TunerShell` construction
    surface with a :class:`~repro.core.config.ColtConfig` (defaults
    follow the paper); ``breaker`` guards what-if profiling.

    Attributes:
        profiler: The Profiler (candidates, hot/materialized gains,
            what-if budget, circuit breaker).
        self_organizer: The Self-Organizer, which owns ``M`` and ``H``.
    """

    engine = "colt"
    config_class = ColtConfig
    metric_families = TUNER_METRICS

    @property
    def materialized(self) -> Set[IndexDef]:
        """The materialized set ``M`` (owned by the Self-Organizer)."""
        return self.self_organizer.materialized

    @property
    def hot(self) -> Set[IndexDef]:
        """The hot set ``H`` (owned by the Self-Organizer)."""
        return self.self_organizer.hot

    def _build_engine(self, breaker: Optional[CircuitBreaker]) -> None:
        self.profiler = Profiler(
            self.catalog, self.whatif, self.config, breaker=breaker, registry=self.registry
        )
        self.self_organizer = SelfOrganizer(self.catalog, self.config, registry=self.registry)
        # Adopt whatever is already materialized as the starting M.
        self.self_organizer.materialized = set(self.catalog.materialized_indexes())
        self._epoch_inserts: dict = {}

    def _build_metrics(self) -> None:
        super()._build_metrics()
        self._metrics["whatif_budget"].set(self.profiler.whatif_budget)

    def _profile(self, query: Query, session: WhatIfSession) -> None:
        self.profiler.profile_query(
            query, session, hot=self.hot, materialized=self.materialized
        )

    def _count_query(
        self, session: WhatIfSession, whatif_calls: int, whatif_overhead: float
    ) -> None:
        m = self._metrics
        m["whatif_calls_total"].inc(whatif_calls)
        m["whatif_overhead_cost_total"].inc(whatif_overhead)
        m["execution_cost_total"].inc(session.base.cost)
        m["query_cost"].observe(session.base.cost)

    def _probe_budget(self) -> Tuple[int, int, int]:
        return (
            self.config.max_whatif_per_epoch,
            self.profiler.whatif_budget,
            self.profiler.whatif_used,
        )

    def _close_epoch(self) -> ReorganizationResult:
        hot_before = set(self.hot)
        report = self.profiler.end_epoch(hot=self.hot, materialized=self.materialized)
        inserts = self._epoch_inserts
        self._epoch_inserts = {}
        constraints = None
        decisions = None
        if self.guardrails is not None:
            # Guardrail verdicts land first, so a fresh quarantine is
            # already a hard ban for this boundary's knapsack (the
            # banned index falls out of the selection and is dropped).
            decisions = self.guardrails.end_epoch(self.materialized)
            constraints = self.guardrails.constraints() or None
        # Advisory co-tuning preferences are soft and never override
        # pins/bans; with no advisory installed this is a no-op, so the
        # cotune-off path stays bit-identical.
        constraints = synthesize_constraints(constraints, self._advisory)
        reorg = self.self_organizer.end_epoch(
            report, self.profiler, inserts=inserts, constraints=constraints
        )
        if decisions is not None:
            reorg.quarantined = decisions.quarantined
            reorg.released = decisions.released
        self._metrics["hot_churn_total"].inc(
            len(hot_before.symmetric_difference(self.hot))
        )
        return reorg

    def _after_apply(self, reorg: ReorganizationResult, retry: RetryReport) -> None:
        # Pair statistics measured under a configuration that just
        # changed no longer describe it.
        if reorg.materialize or reorg.drop or retry.recovered:
            self.profiler.purge_stale()
        self.profiler.set_budget(reorg.whatif_budget)

    def _count_epoch(
        self, reorg: ReorganizationResult, build_cost: float, seconds: float
    ) -> None:
        m = self._metrics
        m["epoch_close_seconds"].observe(seconds)
        m["build_cost_total"].inc(build_cost)
        m["hot_indexes"].set(len(self.hot))
        m["whatif_budget"].set(reorg.whatif_budget)
        m["improvement_ratio"].set(reorg.improvement_ratio)

    def _note_insert(self, table: str, rows: int) -> None:
        # The Self-Organizer discounts NetBenefit by the epoch's writes.
        self._epoch_inserts[table] = self._epoch_inserts.get(table, 0) + rows
        self._metrics["insert_rows_total"].inc(rows)
