"""The shared memo rule: exact keys, one bounded LRU, nothing else.

The gain cache has its own unit tests (test_gaincache.py); these pin
the store itself, the batched pricer's and the crude-benefit memo's use
of it, and that the default serving path keeps no memo at all.
"""

from repro.backend.local import LocalBackend
from repro.bench.replay import ReplayStream, build_replay_tuner, replay_serial
from repro.core import ColtConfig, ColtTuner
from repro.core.batching import BatchedPricer, SignatureInterner
from repro.core.candidates import CandidateTracker
from repro.core.memo import LruMemo
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query
from repro.workload.datagen import build_catalog

from tests.bench.test_replay import mixed_queries
from tests.fleet.workloads import build_small_catalog


def orders_queries(catalog, n):
    return [
        bind_query(
            parse_query(f"select * from orders_1 where o_custkey = {k}"),
            catalog,
        )
        for k in range(1, n + 1)
    ]


class TestLruMemo:
    def test_serves_exact_keys_and_evicts_least_recently_used(self):
        memo = LruMemo(max_entries=2)
        assert memo.put("a", 1) is False
        assert memo.put("b", 2) is False
        assert memo.get("a") == 1  # "b" is now least recently used
        assert memo.put("c", 3) is True
        assert memo.get("b") is None
        assert (memo.get("a"), memo.get("c")) == (1, 3)
        assert len(memo) == 2

    def test_falsy_values_are_hits(self):
        memo = LruMemo()
        memo.put("zero", 0.0)
        memo.put("empty", [])
        assert memo.get("zero") == 0.0
        assert memo.get("empty") == []


class TestBatchedPricerBound:
    def test_evicted_entry_is_a_miss(self):
        catalog = build_catalog()
        pricer = BatchedPricer(LocalBackend(catalog), max_entries=4)
        queries = orders_queries(catalog, 40)
        pricer.begin_queries(queries)
        assert pricer.misses == 40
        # The bound covers every key the memo keeps, shortcut keys
        # included, so nothing beyond it stays reachable.
        assert len(pricer._memo) <= 4
        pricer.begin_query(queries[0])
        assert pricer.misses == 41
        assert pricer.hits == 0

    def test_recent_entry_still_hits(self):
        catalog = build_catalog()
        pricer = BatchedPricer(LocalBackend(catalog), max_entries=4)
        queries = orders_queries(catalog, 40)
        pricer.begin_queries(queries)
        pricer.begin_query(queries[-1])
        assert pricer.hits == 1

    def test_config_round_trip_hits_the_fine_key(self):
        catalog = build_catalog()
        pricer = BatchedPricer(LocalBackend(catalog))
        query = orders_queries(catalog, 1)[0]
        first = pricer.begin_query(query)
        index = catalog.index_for("orders_1", "o_custkey")
        catalog.materialize_index(index)
        assert pricer.begin_query(query).base.cost < first.base.cost
        catalog.drop_index(index)
        # A new config token, but the query-specific key matches again.
        again = pricer.begin_query(query)
        assert again.base is first.base
        assert (pricer.hits, pricer.misses) == (1, 2)


class TestCrudeMemo:
    def _tracker(self, catalog):
        tracker = CandidateTracker(catalog, history_epochs=4, smoothing=0.5)
        tracker.interner = SignatureInterner()
        return tracker

    def test_row_delta_recomputes_and_matches_a_fresh_tracker(self):
        catalog = build_catalog()
        tracker = self._tracker(catalog)
        query = orders_queries(catalog, 1)[0]
        before = tracker._mined_with_crude(query)
        assert tracker._mined_with_crude(query) is before  # served
        catalog.apply_row_delta("orders_1", 50_000)
        after = tracker._mined_with_crude(query)
        assert after is not before
        plain = CandidateTracker(catalog, history_epochs=4, smoothing=0.5)
        assert after == plain._mined_with_crude(query)

    def test_memo_is_bounded(self):
        catalog = build_catalog()
        tracker = self._tracker(catalog)
        tracker._crude_memo = LruMemo(max_entries=3)
        for query in orders_queries(catalog, 10):
            tracker._mined_with_crude(query)
        assert len(tracker._crude_memo) == 3


def test_default_path_keeps_no_memo():
    catalog = build_catalog()
    tuner = ColtTuner(catalog, ColtConfig())
    for query in orders_queries(catalog, 30):
        tuner.process_query(query)
    assert tuner.profiler.candidates.interner is None
    assert len(tuner.profiler.candidates._crude_memo) == 0
    assert tuner.profiler.gain_cache.interner is None
    assert len(tuner.profiler.gain_cache) == 0


def test_interned_gain_cache_keys_match_plain_ones():
    # Batched replay keys the gain cache by interned signature index;
    # the decisions and every hit must be the ones full signatures give.
    config = ColtConfig(storage_budget_pages=6000.0, gain_cache=True)
    stream = ReplayStream(mixed_queries(6), events=600, seed=3)
    plain = build_replay_tuner(build_small_catalog(), config)
    batched = build_replay_tuner(build_small_catalog(), config, batched=True)
    assert batched.profiler.gain_cache.interner is batched.backend.interner
    serial_report = replay_serial(plain, stream)
    batched_report = replay_serial(batched, stream, batch_size=32)
    assert batched_report.total_cost == serial_report.total_cost
    assert batched_report.whatif_calls == serial_report.whatif_calls
    plain_cache, interned_cache = (
        plain.profiler.gain_cache,
        batched.profiler.gain_cache,
    )
    assert interned_cache.hits_exact > 0
    assert (interned_cache.hits_structural, interned_cache.hits_exact) == (
        plain_cache.hits_structural,
        plain_cache.hits_exact,
    )
