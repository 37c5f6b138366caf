"""Machinery shared by the workloads: spans, operations, the closed loop and statistics.

A workload is a list of operations.  Each operation calls into boostfield's
public functions, and a check then compares what came back with a value
the benchmark worked out on its own.  An operation that raises, or whose
check fails, is counted as failed and the loop goes on.

Spans are recorded only in traced runs.  ``Tracer.wrap`` hands back the
function itself when tracing is off, so untraced runs pay nothing for it.

The host's speed drifts by tens of percent over seconds and minutes, so
each operation is bracketed by a fixed piece of reference work that does
not touch boostfield.  An operation's time divided by the reference time
around it, times the reference's nominal time, is its time at nominal
speed; the end-to-end metrics use those times.
"""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

# layers are boostfield's modules; a span's layer is the first part of its name
LAYERS = ("kinematics", "profiles", "fields", "spectral", "verify", "pde", "cli")

# percentiles tried, highest first, for the tail statistic
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


# reference work: two 32^3 periodic stencils and 500 scalar complex exponentials
_REF_FIELD = np.exp(1j * np.linspace(0.0, 6.0, 32**3)).reshape(32, 32, 32)
_REF_POINTS = np.linspace(-1.0, 1.0, 500).tolist()
# its typical time on the reference machine (Intel Xeon, 2 vCPUs, numpy 2.4)
REFERENCE_NOMINAL_S = 1.8e-3


def reference_seconds() -> float:
    """Time of the fixed reference work, a gauge of the machine's current speed."""
    t0 = perf_counter()
    for _ in range(2):
        out = np.zeros_like(_REF_FIELD)
        for ax in range(3):
            out += np.roll(_REF_FIELD, -1, axis=ax) - 2.0 * _REF_FIELD + np.roll(_REF_FIELD, 1, axis=ax)
    for z in _REF_POINTS:
        complex(np.exp(1j * z))
    return perf_counter() - t0


def at_nominal_speed(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_NOMINAL_S / reference


class CheckFailed(Exception):
    """An operation returned a value that disagrees with the benchmark's expectation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    pass_id: int
    work: float
    tag: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Keeps spans in memory until the run ends.

    ``pass_id`` is -1 while inputs are built and the pass number after that,
    so spans of one pass share it.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.pass_id = -1
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, work: float = 1, tag: str | None = None) -> Callable:
        """``fn`` itself when disabled; otherwise ``fn`` with a span around each call."""
        if not self.enabled:
            return fn
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, self.pass_id, work, tag)

        return traced

    def call(self, name: str, fn: Callable, *args, work: float = 1, tag: str | None = None, **kwargs):
        return self.wrap(name, fn, work, tag)(*args, **kwargs)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


@dataclass
class Op:
    """One timed operation: ``run`` calls the program, ``check`` judges the result.

    ``check`` returns diagnostics, each a worst-case value merged by maximum,
    or raises.
    """

    name: str
    run: Callable[[Tracer], object]
    check: Callable[[object], dict]


@dataclass
class Outcome:
    op: str
    pass_id: int
    seconds: float
    reference: float  # mean reference time just before and just after
    ok: bool = False

    @property
    def nominal(self) -> float:
        return at_nominal_speed(self.seconds, self.reference)


@dataclass
class LoopResult:
    outcomes: list[Outcome] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)  # wall time, checks included
    diagnostics: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def note(self, key: str, value: float) -> None:
        """Keep the worst (largest) value of a diagnostic."""
        self.diagnostics[key] = max(value, self.diagnostics.get(key, -math.inf))

    def extend(self, other: "LoopResult") -> None:
        self.outcomes += other.outcomes
        self.pass_seconds += other.pass_seconds
        for key, value in other.diagnostics.items():
            self.note(key, value)

    def pass_busy(self, nominal: bool = True) -> list[float]:
        """Time inside operations per pass, checks left out; at nominal speed by default."""
        busy: dict[int, float] = {}
        for o in self.outcomes:
            busy[o.pass_id] = busy.get(o.pass_id, 0.0) + (o.nominal if nominal else o.seconds)
        return list(busy.values())


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_pass(ops: list[Op], tracer: Tracer, pass_id: int, result: LoopResult) -> None:
    tracer.pass_id = pass_id
    t_pass = perf_counter()
    ref_before = reference_seconds()
    for op in ops:
        t0 = perf_counter()
        try:
            value = op.run(tracer)
        except Exception:  # the loop must outlive a failing operation
            value, elapsed, error = None, perf_counter() - t0, traceback.format_exc()
        else:
            elapsed, error = perf_counter() - t0, None
        ref_after = reference_seconds()
        outcome = Outcome(op.name, pass_id, elapsed, 0.5 * (ref_before + ref_after))
        ref_before = ref_after
        result.outcomes.append(outcome)
        if error is not None:
            log(f"FAILED {op.name}: raised\n{error}")
            continue
        try:
            diag = op.check(value) or {}
        except Exception as exc:  # a check that raises is a failed check
            log(f"FAILED {op.name}: {type(exc).__name__}: {exc}")
            continue
        outcome.ok = True
        for key, v in diag.items():
            result.note(key, v)
    result.pass_seconds.append(perf_counter() - t_pass)


def closed_loop(ops: list[Op], seconds: float, *tracers: Tracer) -> list[LoopResult]:
    """One client: whole passes back to back for about ``seconds``.

    Passes take the tracers in turn, one result per tracer, and stop after
    a full turn once less than half a typical pass fits before the deadline;
    so each tracer gets at least one pass and a run overshoots by half a
    pass at most.
    """
    results = [LoopResult() for _ in tracers]
    deadline = perf_counter() + seconds
    passes: list[float] = []
    pass_id = 0
    while True:
        for tracer, result in zip(tracers, results):
            run_pass(ops, tracer, pass_id, result)
            passes.append(result.pass_seconds[-1])
        pass_id += 1
        if deadline - perf_counter() < 0.5 * statistics.median(passes):
            return results


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples).

    With fewer than twenty samples no percentile qualifies and the maximum
    (percentile 100) is reported instead.
    """
    s = sorted(values)
    n = len(s)
    for p in TAIL_PERCENTILES:
        k = max(1, math.ceil(p / 100.0 * n))
        if n - k >= TAIL_MIN_BEYOND:
            return s[k - 1], p, n
    return s[-1], 100.0, n


def per_op_medians(outcomes: list[Outcome], nominal: bool = True) -> dict[str, float]:
    """Each operation's median time, at nominal speed by default."""
    by_op: dict[str, list[float]] = {}
    for o in outcomes:
        by_op.setdefault(o.op, []).append(o.nominal if nominal else o.seconds)
    return {name: statistics.median(v) for name, v in by_op.items()}
