"""Per-layer spans, recorded from outside the package by wrapping module attributes.

A span replaces, for the duration of a ``Tracer`` block, the attributes that
callers look up at call time (``orbitact.solver._action_value`` is what the
line search calls, not ``orbitact.action.action_value``). Each call adds one
to the span's count and its self time, which is the call's duration minus
the time of wrapped calls made inside it. Spans are aggregated in memory, not
stored one by one: a ring6 search makes tens of thousands of calls.

An attribute that no longer exists is skipped, so a span whose function was
deleted or renamed reports zero calls instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# (layer, function) -> the (module, attribute) names that callers look up.
# orbitact.action is reached through sys.modules: the package attribute of
# that name is the action function, not the module.
SPANS = {
    ("loopspace", "sample_trajectory"): [("orbitact.loopspace", "sample_trajectory")],
    ("loopspace", "sample_acceleration"): [("orbitact.loopspace", "sample_acceleration")],
    ("loopspace", "shift_loop"): [("orbitact.solver", "shift_loop")],
    ("loopspace", "h1_distance"): [("orbitact.solver", "h1_distance")],
    ("potential", "grid_potential"): [
        ("orbitact.action", "grid_potential"),
        ("orbitact.verify", "grid_potential"),
    ],
    ("potential", "grid_potential_hessian"): [("orbitact.action", "grid_potential_hessian")],
    ("potential", "pair_potential"): [("orbitact.verify", "pair_potential")],
    ("potential", "strong_force_margin"): [("orbitact.verify", "strong_force_margin")],
    ("action", "action"): [("orbitact.solver", "_action")],
    ("action", "action_value"): [("orbitact.solver", "_action_value")],
    ("action", "action_hessian"): [("orbitact.solver", "_action_hessian")],
    ("solver", "descend"): [("orbitact.solver", "descend")],
    ("solver", "dedupe"): [("orbitact.solver", "dedupe")],
    ("solver", "eigh"): [("numpy.linalg", "eigh")],
    ("verify", "euler_lagrange_residual"): [("orbitact.solver", "euler_lagrange_residual")],
    ("verify", "check_pairwise_identity"): [("orbitact.verify", "check_pairwise_identity")],
    ("verify", "check_holder_bound"): [("orbitact.verify", "check_holder_bound")],
    ("verify", "check_wirtinger"): [("orbitact.verify", "check_wirtinger")],
    ("verify", "check_modulation_symmetry"): [("orbitact.verify", "check_modulation_symmetry")],
}


class Span:
    """Calls, self time and exceptions raised, for one (layer, function)."""

    __slots__ = ("calls", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = Counter()


class Tracer:
    """Context manager that wraps every span's attributes and restores them on exit.

    ``spans`` holds one fresh ``Span`` per key of ``SPANS`` each time the
    block is entered.
    """

    def __init__(self):
        self.spans = {}
        self._saved = []
        self._child_time = []  # one accumulator per wrapped call in progress

    def __enter__(self):
        self.spans = {key: Span() for key in SPANS}
        self._child_time = []
        try:
            for key, targets in SPANS.items():
                for module_name, attr in targets:
                    try:
                        module = importlib.import_module(module_name)
                    except ImportError:
                        continue
                    original = getattr(module, attr, None)
                    if not callable(original):
                        continue
                    self._saved.append((module, attr, original))
                    setattr(module, attr, _wrap(original, self.spans[key], self._child_time))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()
        return False

    def exclude(self, seconds: float) -> None:
        """Leave seconds spent outside the package out of the running span's self time."""
        if self._child_time:
            self._child_time[-1] += seconds

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _wrap(fn, span: Span, child_time: list):
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        child_time.append(0.0)
        start = clock()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span.raised[type(exc).__name__] += 1
            raise
        finally:
            elapsed = clock() - start
            span.calls += 1
            span.self_s += elapsed - child_time.pop()
            if child_time:
                child_time[-1] += elapsed

    return wrapper
