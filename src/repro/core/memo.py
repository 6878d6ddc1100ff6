"""One validity rule for the cross-query memos.

Three memos spare the optimizer repeated work across queries: the
what-if gain cache (:mod:`repro.core.gaincache`), the batched pricer's
base-optimize memo (:class:`~repro.core.batching.BatchedPricer`) and the
candidate tracker's crude-benefit memo
(:class:`~repro.core.candidates.CandidateTracker`).  All three follow
one rule:

* the key holds everything the value depends on: the query's
  structural signature (its interned index when a
  :class:`~repro.core.batching.SignatureInterner` is attached), the
  relevant-config signature for optimizer results, and the statistics
  token of every table the query reads;
* a value is served only on an exact key match;
* an entry leaves only when its :class:`LruMemo` is full, least
  recently used first.

A stale entry can therefore never be served.  A build, a drop or a
statistics change alters the key, so the old entry sits unused until
the LRU evicts it; if the change is undone (a build-then-drop round
trip), the old key is valid again and hits.  No memo needs an
invalidation hook, an epoch TTL or a manual clear.
"""

from __future__ import annotations

import collections
from typing import Callable, Hashable, Iterable, Optional, Tuple

__all__ = ["DEFAULT_MAX_ENTRIES", "LruMemo", "stats_tokens"]

#: Capacity of a memo whose owner does not choose one.
DEFAULT_MAX_ENTRIES = 4096


def stats_tokens(
    stats_token: Callable[[str], object], tables: Iterable[str]
) -> Tuple:
    """``((table, token), ...)``: the statistics part of every memo key."""
    return tuple((table, stats_token(table)) for table in tables)


class LruMemo:
    """A bounded key-value store that serves exact matches only.

    Every key an owner stores counts against ``max_entries``, including
    shortcut keys that point at a value stored under another key, so the
    bound covers everything the memo keeps reachable.  Values must not
    be ``None`` (that is the miss marker).
    """

    __slots__ = ("max_entries", "_data")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.max_entries = max(1, max_entries)
        self._data: "collections.OrderedDict[Hashable, object]" = (
            collections.OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Optional[object]:
        """The value stored under ``key``, or None; a hit becomes most
        recently used."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: object) -> bool:
        """Store ``value`` under ``key``; True when this evicted an entry."""
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.max_entries:
            data.popitem(last=False)
            return True
        return False
