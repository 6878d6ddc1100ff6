"""Unit tests for the cross-query what-if gain cache.

The differential harness (test_gaincache_differential.py) proves the
end-to-end equivalence; these tests pin the mechanisms it relies on --
the structural-zero rule, exact-key replay, self-validating keys (no
invalidation hook), LRU capacity eviction, and the metrics contract.
"""

import random

import pytest

from repro.core import ColtConfig, ColtTuner
from repro.core.gaincache import (
    GainCache,
    query_signature,
    referenced_columns,
)
from repro.obs.registry import MetricsRegistry
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfOptimizer
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query
from repro.workload.datagen import build_catalog


def _query(catalog, sql):
    return bind_query(parse_query(sql), catalog)


@pytest.fixture()
def catalog():
    return build_catalog()


@pytest.fixture()
def whatif(catalog):
    return WhatIfOptimizer(Optimizer(catalog))


@pytest.fixture()
def cache(catalog, whatif):
    return GainCache(whatif, enabled=True)


ORDERS_SQL = "select * from orders_1 where o_custkey = 42"


class TestStructuralZero:
    def test_unreferenced_index_served_as_exact_zero(self, catalog, whatif, cache):
        query = _query(catalog, ORDERS_SQL)
        ctx = cache.begin_query(query)
        # An index on a column the query never references: the
        # optimizer strips it from the relevant configuration, so the
        # probe's forward and reverse costs coincide.
        other = catalog.index_for("orders_1", "o_totalprice")
        assert ctx.lookup(other) == 0.0
        assert cache.hits_structural == 1
        assert whatif.call_count == 0

    def test_structural_zero_matches_real_probe(self, catalog, whatif, cache):
        query = _query(catalog, ORDERS_SQL)
        session = whatif.begin_query(query)
        other = catalog.index_for("orders_1", "o_totalprice")
        real = whatif.what_if_optimize(session, [other])[other]
        ctx = cache.begin_query(query)
        assert ctx.lookup(other) == real == 0.0

    def test_referenced_index_is_not_a_structural_zero(self, catalog, cache):
        query = _query(catalog, ORDERS_SQL)
        ctx = cache.begin_query(query)
        probed = catalog.index_for("orders_1", "o_custkey")
        assert ctx.lookup(probed) is None
        assert cache.misses == 1

    def test_join_columns_count_as_referenced(self, catalog):
        query = _query(
            catalog,
            "select * from orders_1, customer_1 "
            "where orders_1.o_custkey = customer_1.c_custkey",
        )
        refs = referenced_columns(query)
        assert ("orders_1", "o_custkey") in refs
        assert ("customer_1", "c_custkey") in refs


class TestExactKeyReplay:
    def test_stored_gain_replays_for_identical_query(self, catalog, whatif, cache):
        query = _query(catalog, ORDERS_SQL)
        session = whatif.begin_query(query)
        index = catalog.index_for("orders_1", "o_custkey")
        gain = whatif.what_if_optimize(session, [index])[index]
        assert gain > 0.0

        ctx = cache.begin_query(query)
        assert ctx.lookup(index) is None  # miss: nothing stored yet
        ctx.store(index, gain)

        replay = cache.begin_query(_query(catalog, ORDERS_SQL))
        assert replay.lookup(index) == gain
        assert cache.hits_exact == 1

    def test_different_literal_is_a_different_key(self, catalog, cache):
        index = catalog.index_for("orders_1", "o_custkey")
        ctx = cache.begin_query(_query(catalog, ORDERS_SQL))
        ctx.lookup(index)
        ctx.store(index, 5.0)
        other = cache.begin_query(
            _query(catalog, "select * from orders_1 where o_custkey = 43")
        )
        assert other.lookup(index) is None

    def test_changed_relevant_config_is_a_different_key(self, catalog, cache):
        index = catalog.index_for("orders_1", "o_custkey")
        ctx = cache.begin_query(_query(catalog, ORDERS_SQL))
        ctx.lookup(index)
        ctx.store(index, 5.0)
        # Materializing an index on the referenced column changes the
        # relevant-config signature: the stored entry must not alias.
        catalog.materialize_index(index)
        try:
            after = cache.begin_query(_query(catalog, ORDERS_SQL))
            assert after.lookup(index) is None
        finally:
            catalog.drop_index(index)

    def test_stats_token_mismatch_invalidates_on_lookup(self, catalog, cache):
        index = catalog.index_for("orders_1", "o_custkey")
        ctx = cache.begin_query(_query(catalog, ORDERS_SQL))
        ctx.lookup(index)
        ctx.store(index, 5.0)
        catalog.table("orders_1").row_count += 1000
        try:
            stale = cache.begin_query(_query(catalog, ORDERS_SQL))
            assert stale.lookup(index) is None
        finally:
            catalog.table("orders_1").row_count -= 1000

    def test_signature_distinguishes_literal_types(self):
        # The binder normally coerces literals to the column type; the
        # signature stays type-tagged anyway so equal-but-differently-
        # typed values (1 == 1.0, same hash) can never alias a key.
        from repro.sql.ast import ColumnExpr, CompareOp, ComparisonPredicate, Query

        def q(value):
            return Query(
                tables=["orders_1"],
                filters=[
                    ComparisonPredicate(
                        ColumnExpr("o_custkey", "orders_1"), CompareOp.EQ, value
                    )
                ],
            )

        assert query_signature(q(1)) != query_signature(q(1.0))
        assert query_signature(q(1)) == query_signature(q(1))


class TestTruncateRefill:
    """Delete-then-insert restoring the row count must still invalidate.

    ``row_count`` alone cannot distinguish a truncate-refill from "no
    change"; the stats *version* component of the token can, provided
    every mutation path bumps it.  These are the regression tests for
    the version-bump sweep across Catalog mutators.
    """

    def test_refill_to_original_count_still_invalidates(
        self, catalog, whatif, cache
    ):
        query = _query(catalog, ORDERS_SQL)
        index = catalog.index_for("orders_1", "o_custkey")
        session = whatif.begin_query(query)
        gain = whatif.what_if_optimize(session, [index])[index]
        ctx = cache.begin_query(query)
        ctx.lookup(index)
        ctx.store(index, gain)
        assert cache.begin_query(query).lookup(index) == gain

        before = catalog.table("orders_1").row_count
        catalog.set_row_count("orders_1", 0.0)  # truncate
        catalog.apply_row_delta("orders_1", before)  # refill
        assert catalog.table("orders_1").row_count == before
        assert cache.begin_query(query).lookup(index) is None

    def test_every_mutator_bumps_the_version(self, catalog):
        versions = [catalog.stats_version("orders_1")]
        catalog.apply_row_delta("orders_1", 100)
        versions.append(catalog.stats_version("orders_1"))
        catalog.apply_row_delta("orders_1", -100)
        versions.append(catalog.stats_version("orders_1"))
        catalog.set_row_count(
            "orders_1", catalog.table("orders_1").row_count
        )
        versions.append(catalog.stats_version("orders_1"))
        catalog.bump_stats_version("orders_1")
        versions.append(catalog.stats_version("orders_1"))
        assert versions == sorted(set(versions))  # strictly increasing

    def test_mutators_validate_the_table(self, catalog):
        with pytest.raises(KeyError):
            catalog.apply_row_delta("no_such_table", 1)
        with pytest.raises(KeyError):
            catalog.set_row_count("no_such_table", 1)
        with pytest.raises(KeyError):
            catalog.bump_stats_version("no_such_table")


class TestInvalidation:
    """What is left of invalidation: stats versions and LRU capacity."""

    def test_set_stats_bumps_the_stats_version(self, catalog):
        before = catalog.stats_version("orders_1")
        catalog.set_stats(
            "orders_1", "o_custkey", catalog.stats("orders_1", "o_custkey")
        )
        assert catalog.stats_version("orders_1") == before + 1

    def test_capacity_eviction(self, catalog, whatif):
        registry = MetricsRegistry()
        small = GainCache(whatif, enabled=True, max_entries=1, registry=registry)
        index = catalog.index_for("orders_1", "o_custkey")
        for value in (41, 42):
            sql = f"select * from orders_1 where o_custkey = {value}"
            ctx = small.begin_query(_query(catalog, sql))
            ctx.lookup(index)
            ctx.store(index, float(value))
        assert len(small) == 1
        assert small.invalidations == 1
        evicted = registry.get("gaincache_invalidations_total")
        assert evicted.value(reason="capacity") == 1
        # The least recently used entry went; the newest still serves.
        first = small.begin_query(
            _query(catalog, "select * from orders_1 where o_custkey = 41")
        )
        assert first.lookup(index) is None
        last = small.begin_query(
            _query(catalog, "select * from orders_1 where o_custkey = 42")
        )
        assert last.lookup(index) == 42.0


class TestSelfValidation:
    """Keys carry every input a gain depends on, so a stale gain can
    never match and nothing has to invalidate entries."""

    def _probe_and_store(self, cache, whatif, query, index):
        gain = whatif.gains_for(query, [index])[index]
        ctx = cache.begin_query(query)
        assert ctx.lookup(index) is None
        ctx.store(index, gain)
        return gain

    def test_build_drop_round_trip_hits_again_bit_for_bit(
        self, catalog, whatif, cache
    ):
        query = _query(catalog, ORDERS_SQL)
        index = catalog.index_for("orders_1", "o_custkey")
        self._probe_and_store(cache, whatif, query, index)
        catalog.materialize_index(index)
        try:
            # Built: the relevant config differs, so the key misses.
            assert cache.begin_query(query).lookup(index) is None
        finally:
            catalog.drop_index(index)
        # Dropped again: the old key is valid and hits, with exactly
        # the gain a fresh optimizer would measure now.
        fresh = WhatIfOptimizer(Optimizer(catalog)).gains_for(query, [index])
        served = cache.begin_query(query).lookup(index)
        assert served is not None
        assert served.hex() == fresh[index].hex()
        assert cache.hits_exact == 1
        assert cache.invalidations == 0

    def test_scheduler_round_trip_needs_no_hook(self, catalog):
        tuner = ColtTuner(catalog, ColtConfig(gain_cache=True))
        cache = tuner.profiler.gain_cache
        query = _query(catalog, ORDERS_SQL)
        index = catalog.index_for("orders_1", "o_custkey")
        gain = self._probe_and_store(cache, tuner.whatif, query, index)
        tuner.scheduler.request_materialization([index])
        assert cache.begin_query(query).lookup(index) is None
        tuner.scheduler.request_drop([index])
        assert cache.begin_query(query).lookup(index) == gain
        assert len(cache) == 1

    def test_row_delta_turns_the_lookup_into_a_miss(
        self, catalog, whatif, cache
    ):
        query = _query(catalog, ORDERS_SQL)
        index = catalog.index_for("orders_1", "o_custkey")
        gain = self._probe_and_store(cache, whatif, query, index)
        # A write to a table the query does not read keeps the key.
        catalog.apply_row_delta("part_1", 10)
        assert cache.begin_query(query).lookup(index) == gain
        catalog.apply_row_delta("orders_1", 10)
        assert cache.begin_query(query).lookup(index) is None

    def test_tuner_insert_turns_the_lookup_into_a_miss(self, catalog):
        tuner = ColtTuner(catalog, ColtConfig(gain_cache=True))
        cache = tuner.profiler.gain_cache
        query = _query(catalog, ORDERS_SQL)
        index = catalog.index_for("orders_1", "o_custkey")
        self._probe_and_store(cache, tuner.whatif, query, index)
        tuner.process_insert("orders_1", count=10)
        assert cache.begin_query(query).lookup(index) is None


class TestTunerIntegration:
    def test_disabled_by_default_and_profiler_skips_it(self, catalog):
        tuner = ColtTuner(catalog, ColtConfig())
        assert tuner.profiler.gain_cache.enabled is False
        rng = random.Random(1)
        for _ in range(15):
            key = rng.randint(1, 10_000)
            tuner.process_query(
                _query(
                    catalog,
                    f"select * from orders_1 where o_custkey = {key}",
                )
            )
        assert tuner.profiler.gain_cache.hits == 0
        assert len(tuner.profiler.gain_cache) == 0

    def test_enabled_tuner_records_hits_on_mixed_workload(self, catalog):
        # Two query shapes on the same table, each referencing only one
        # column: each cluster's relevant hot set then contains the
        # *other* column's index (same-table relevance), whose probe is
        # a structural zero the cache serves without a what-if call.
        tuner = ColtTuner(
            catalog,
            ColtConfig(gain_cache=True, storage_budget_pages=9_000.0),
        )
        rng = random.Random(1)
        for i in range(60):
            if i % 2:
                sql = (
                    "select * from orders_1 where o_custkey = "
                    f"{rng.randint(1, 10_000)}"
                )
            else:
                sql = (
                    "select * from orders_1 where o_totalprice > "
                    f"{rng.uniform(100.0, 200.0):.2f}"
                )
            tuner.process_query(_query(catalog, sql))
        assert tuner.profiler.gain_cache.hits > 0

    def test_metric_families_registered_even_when_disabled(self, catalog):
        registry = MetricsRegistry()
        ColtTuner(catalog, ColtConfig(), registry=registry)
        names = set(registry.names())
        assert {
            "gaincache_hits_total",
            "gaincache_misses_total",
            "gaincache_stores_total",
            "gaincache_invalidations_total",
            "gaincache_entries",
        } <= names

    def test_hit_metrics_track_plain_counters(self, catalog, whatif):
        registry = MetricsRegistry()
        cache = GainCache(whatif, enabled=True, registry=registry)
        query = _query(catalog, ORDERS_SQL)
        ctx = cache.begin_query(query)
        ctx.lookup(catalog.index_for("orders_1", "o_totalprice"))
        hits = registry.get("gaincache_hits_total")
        assert hits.value(kind="structural") == cache.hits_structural == 1
