"""Spans around the program's layer boundaries, recorded from outside it.

The tracer replaces a function by a timing wrapper at every name the
program looks it up by: each ``freegroups`` module global (and package
attribute) bound to that same function object, or the class attribute
for a method.  The program's source is not touched.  Spans stay in
memory until the run ends.

A target that no longer exists is recorded as absent and skipped, so a
change that deletes or renames a private helper cannot break a traced
run; the metrics that need it are left out.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Optional

# (dotted target, what the wrapper records).  "span" records a span;
# "count" only counts calls, for helpers called too often to span
# cheaply.  A callable in the third slot gives the rows one call handled.
TARGETS: list[tuple[str, str, Optional[Callable]]] = [
    ("freegroups.cli.main", "span", None),
    ("freegroups.closure.verify_counterexample", "span", None),
    ("freegroups.closure.build_counterexample", "span", None),
    ("freegroups.closure.dcl_separation_check", "span", None),
    ("freegroups.closure._solution_set_bulk", "span", None),
    ("freegroups._bulk.words_of_length", "span", lambda args, out: out.shape[0]),
    ("freegroups._bulk.bulk_reduce", "span", lambda args, out: args[0].shape[0]),
    ("freegroups._bulk.cyclic_bounds", "span", None),
    ("freegroups._bulk.nonfixed_with_marked_letter", "span", None),
    ("freegroups.stallings.subgroup_graph", "span", None),
    ("freegroups.stallings.intersect", "span", None),
    ("freegroups.stallings.is_malnormal", "span", None),
    ("freegroups.stallings.SubgroupGraph.contains", "span", None),
    ("freegroups.stallings._fold", "span", None),
    ("freegroups.stallings._trim", "span", None),
    ("freegroups.stallings._trim_all", "span", None),
    ("freegroups.stallings._product_edges", "span", None),
    ("freegroups.stallings._canonical", "span", None),
    ("freegroups.whitehead.is_primitive", "span", None),
    ("freegroups.whitehead.minimize_tuple", "span", None),
    ("freegroups.whitehead.is_free_factor", "span", None),
    ("freegroups.whitehead._minimize_cyclic", "span", None),
    ("freegroups.whitehead.WhiteheadMove.apply", "count", None),
    ("freegroups.splittings.britton_reduce", "span", None),
    ("freegroups.splittings.hnn_equal", "count", None),
    ("freegroups.endos.orbit_bounded", "span", None),
]


def short_name(target: str) -> str:
    """``freegroups.stallings.SubgroupGraph.contains`` -> ``stallings.SubgroupGraph.contains``."""
    return target.split(".", 1)[1]


def _resolve(target: str):
    """(owner, attribute, function) for a dotted target, or None if absent."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """Records spans ``[name, start, end, parent, round, root]`` and call counts.

    ``factors`` maps a root span to the host-speed factor of its interval;
    durations of the root and everything under it are divided by it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.rows: dict[str, int] = {}
        self.round = 0
        self.factors: dict[int, float] = {}
        self.absent: list[str] = []
        self.wrapped: list[str] = []

    # -- recording ---------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        root = self.stack[0] if self.stack else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round, root])
        self.stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, fn, name: str, rows: Optional[Callable]):
        tracer = self
        row_key = name + ".rows"

        def wrapper(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave(idx)
            if rows is not None:
                try:
                    n = int(rows(args, out))
                except (AttributeError, IndexError, TypeError):
                    n = 0  # a changed signature must not break the traced run
                tracer.rows[row_key] = tracer.rows.get(row_key, 0) + n
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for target, kind, rows in targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(short_name(target))
                continue
            owner, attr, fn = found
            name = short_name(target)
            wrapper = (
                self._count_wrapper(fn, name)
                if kind == "count"
                else self._span_wrapper(fn, name, rows)
            )
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "freegroups" or mod_name.startswith("freegroups.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
            self.wrapped.append(name)

    # -- summaries ---------------------------------------------------------

    def duration(self, idx: int) -> float:
        _, start, end, _, _, root = self.spans[idx]
        return (end - start) / self.factors.get(root, 1.0)

    def per_round(self, rounds: int, name: str) -> list[float]:
        """Per-round sums of the durations of the spans with this name."""
        totals = [0.0] * rounds
        for idx, span in enumerate(self.spans):
            if span[0] == name:
                totals[span[4]] += self.duration(idx)
        return totals

    def child_time(self) -> list[float]:
        """For each span, the part of its interval its direct children cover."""
        covered = [0.0] * len(self.spans)
        for idx, span in enumerate(self.spans):
            if span[3] >= 0:
                covered[span[3]] += self.duration(idx)
        return covered
