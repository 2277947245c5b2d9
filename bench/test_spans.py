"""The tracer wraps functions at every name they are looked up by, and
survives targets that a later change deletes.

    python3 -m pytest bench -q
"""

import sys

import pytest

import child  # puts the program's sources on sys.path
import freegroups
from freegroups import stallings, whitehead, words
from spans import TARGETS, Tracer, _resolve


@pytest.fixture
def restore_program():
    """Undo the tracer's module and class patches after each test."""
    saved = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and (name == "freegroups" or name.startswith("freegroups."))
    }
    methods = [found for found in map(_resolve, (t[0] for t in TARGETS))
               if found is not None and isinstance(found[0], type)]
    yield
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)
    for owner, attr, fn in methods:
        setattr(owner, attr, fn)


def test_wraps_every_binding_of_a_function(restore_program):
    tracer = Tracer()
    tracer.install([("freegroups.stallings.subgroup_graph", "span", None),
                    ("freegroups.stallings.SubgroupGraph.contains", "span", None)])
    # The package re-export, the defining module and whitehead's lookup all see the wrapper.
    assert freegroups.subgroup_graph is stallings.subgroup_graph
    assert stallings.subgroup_graph.__wrapped__ is not None
    alphabet = words.Alphabet("a b")
    x = words.parse_word(alphabet, "a b a^-1")
    assert whitehead.is_free_factor([x], alphabet)
    assert [s[0] for s in tracer.spans] == ["stallings.subgroup_graph"]
    graph = freegroups.subgroup_graph(alphabet, [x])
    assert graph.contains(x)
    assert [s[0] for s in tracer.spans][-1] == "stallings.SubgroupGraph.contains"


def test_absent_targets_are_reported_not_fatal(restore_program, monkeypatch):
    monkeypatch.delattr(stallings, "_trim_all")
    tracer = Tracer()
    tracer.install()
    assert "stallings._trim_all" in tracer.absent
    assert "stallings.is_malnormal" in tracer.wrapped


def test_metrics_of_absent_functions_are_left_out(restore_program):
    tracer = Tracer()
    tracer.absent = ["_bulk.cyclic_bounds", "closure.dcl_separation_check"]
    out = child.layer_metrics(tracer, {}, [{}], [{}])
    assert "bulk.cyclic_bounds_s" not in out
    assert "closure.dcl_separation_s" not in out
    assert "closure.solution_set_s" not in out
    assert out["bulk.bulk_reduce_s"] == 0.0


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.enter("outer")
    inner = tracer.enter("inner")
    tracer.leave(inner)
    tracer.leave(outer)
    tracer.spans[outer][1:3] = [0.0, 10.0]
    tracer.spans[inner][1:3] = [2.0, 5.0]
    tracer.factors[outer] = 2.0  # the host ran at half speed: durations halve
    summary = child.self_times(tracer, 1)
    assert summary["outer"]["self_ms"] == pytest.approx(3500.0)
    assert summary["inner"]["self_ms"] == pytest.approx(1500.0)
