"""Reference-normalized timing.

The host this benchmark was written on alternates between two speeds about
2x apart, in phases lasting seconds, so a raw median over a few seconds is
not repeatable.  Every timed batch is therefore bracketed by a fixed
reference batch from this file, and its time is rescaled to what it would
have been had the reference run at the nominal rate `NOMINAL_REF_RATE`:

    t_reported = t_measured * (reference rate next to it) / NOMINAL_REF_RATE

A host phase that slows both the batch and its neighbouring reference
cancels out.  Under heavy contention the reference slows more than the
engine does and the rescaling over-corrects, so an estimate keeps only the
batches whose reference rate is at or above the run's median reference
rate and takes the median of those.

The reference exercises the same kind of work as the engine: small-object
allocation, attribute access, dict dispatch and recursive calls (a
miniature tree walker), plus a float tuple built by a generator expression
(the vector kernels' shape).  `NOMINAL_REF_RATE` is this host's
fast-phase reference rate (2 vCPU, Python 3.11.7), so reported figures
read as the host's fast-phase speed; `reference_rates` in the report keeps
the measured rates so raw times can be recovered.
"""

from __future__ import annotations

import statistics
import time
from typing import NamedTuple

ESTIMATOR = (
    "median of batch times rescaled by the mean rate of the reference batches "
    "just before and after each, over the batches whose reference rate is at "
    "or above the run's median reference rate"
)

# reference units per second on the host's fast phase; a fixed scale only
NOMINAL_REF_RATE = 1000.0


class _Node:
    __slots__ = ("kind", "a", "b")

    def __init__(self, kind, a=None, b=None):
        self.kind = kind
        self.a = a
        self.b = b


class _Num:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = float(x)


_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


def _walk(node, env):
    kind = node.kind
    if kind == "c":
        return node.a
    if kind == "v":
        return env[node.a]
    return _Num(_OPS[kind](_walk(node.a, env).x, _walk(node.b, env).x))


def _tree(depth, i=0):
    if depth == 0:
        return _Node("v", i % 3) if i % 2 else _Node("c", _Num(1.5))
    return _Node("+*-"[depth % 3], _tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


_TREE = _tree(5)
_ENV = (_Num(1.2), _Num(1.7), _Num(0.3))
_XS = tuple(float(i % 97) * 0.25 for i in range(1000))


def reference_unit() -> None:
    """One unit of fixed reference work (about 1 ms on the reference host)."""
    for _ in range(60):
        _walk(_TREE, _ENV)
    for _ in range(4):
        tuple(a * b + 1.0 for a, b in zip(_XS, _XS))


def reference_rate(units: int = 2) -> float:
    """Reference units per second, measured now."""
    t0 = time.perf_counter_ns()
    for _ in range(units):
        reference_unit()
    return units * 1e9 / (time.perf_counter_ns() - t0)


class Sample(NamedTuple):
    seconds: float  # rescaled to the nominal reference rate
    rate: float  # reference rate around the batch


class Clock:
    """Times batches between reference batches and rescales them.

    `measure(fn)` runs fn once and returns its rescaled duration;
    consecutive measurements share the reference batch between them, so
    each batch is bracketed by one before and one after.
    """

    def __init__(self):
        self.rates: list[float] = []
        for _ in range(3):  # warm the reference code before trusting it
            reference_rate()
        self._last = reference_rate()

    def measure(self, fn) -> Sample:
        before = self._last
        t0 = time.perf_counter_ns()
        fn()
        elapsed = (time.perf_counter_ns() - t0) / 1e9
        after = reference_rate()
        self._last = after
        rate = (before + after) / 2
        self.rates.append(rate)
        return Sample(elapsed * rate / NOMINAL_REF_RATE, rate)

    def estimate(self, samples: list[Sample]) -> float:
        """The ESTIMATOR over samples, against every rate seen so far."""
        floor = statistics.median(self.rates)
        fast = [s.seconds for s in samples if s.rate >= floor]
        return statistics.median(fast or [s.seconds for s in samples])

    def rate_summary(self) -> dict:
        rates = self.rates or [self._last]
        return {
            "nominal": NOMINAL_REF_RATE,
            "median": statistics.median(rates),
            "p90": percentile(rates, 0.9),
            "samples": len(rates),
        }


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
