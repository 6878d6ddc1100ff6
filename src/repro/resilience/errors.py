"""Exception taxonomy for the resilience subsystem.

These live in a dependency-free module so that both the core pipeline
(profiler, scheduler, what-if optimizer) and the fault injector can
share them without import cycles: ``repro.core.*`` imports from here,
and ``repro.resilience.faults`` raises these into the core, never the
other way around.
"""

from __future__ import annotations


class WhatIfProbeError(RuntimeError):
    """A single what-if probe failed (call error or timeout).

    Raised by :class:`~repro.optimizer.whatif.WhatIfOptimizer` when a
    probe cannot be answered -- a fault injector fired, or the backend
    cannot price a reverse probe.  It is the only probe noise the
    tuners absorb; any other error from the optimizer propagates.  The
    probe's what-if call is still counted (and charged): a failed call
    costs wall-clock time in the system this simulates.

    Attributes:
        partial_gains: Gains measured for indexes probed *earlier in the
            same batch*, before the failing probe.  Those measurements
            were paid for and are exact, so the profiler consumes them
            instead of silently discarding and re-probing.  Empty when
            the first probe of a batch fails.
    """

    def __init__(self, *args: object, partial_gains=None) -> None:
        super().__init__(*args)
        self.partial_gains: dict = dict(partial_gains) if partial_gains else {}


class IndexBuildError(RuntimeError):
    """An index build failed mid-materialization.

    Raised by the scheduler's build path.  The failed index is left
    unmaterialized (any partial physical state is rolled back) so the
    knapsack keeps treating it as absent.
    """


class InjectedFault(RuntimeError):
    """Marker mixin for failures originating from the fault injector.

    Concrete injected failures multiply-inherit from this and the
    site-specific error so production code can catch the site error
    while tests assert the failure was injected.
    """


class InjectedWhatIfFault(InjectedFault, WhatIfProbeError):
    """An injected what-if call failure."""


class InjectedBuildFault(InjectedFault, IndexBuildError):
    """An injected index-build failure."""
