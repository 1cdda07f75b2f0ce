import importlib
import pkgutil
import types

import numpy as np
import pytest

import so3harmonics
from so3harmonics import harmonics, harness, specconv
from tracer import (WRAPPED_METHODS, Tracer, descendant_counts, layer_times,
                    phase_coverage)


def _library_attributes():
    """Every (owner, name) -> object binding the tracer may replace."""
    out = {}
    for info in pkgutil.iter_modules(so3harmonics.__path__):
        module = importlib.import_module(f"so3harmonics.{info.name}")
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType):
                out[(module.__name__, attr)] = (module, value)
    for module_name, cls_name, attr in WRAPPED_METHODS:
        cls = getattr(importlib.import_module(f"so3harmonics.{module_name}"), cls_name)
        out[(f"{module_name}.{cls_name}", attr)] = (cls, vars(cls)[attr])
    return out


def test_uninstall_restores_every_wrapped_attribute():
    before = _library_attributes()
    original_trunk = harness.forward_trunk
    tracer = Tracer("restore")
    patched = tracer.install()
    try:
        assert patched == len(tracer._patched) > 50
        assert harness.forward_trunk is not original_trunk
        assert specconv.ridge_solver is harmonics.ridge_solver
    finally:
        tracer.uninstall()
    assert tracer._patched == []
    for (owner_name, attr), (owner, value) in before.items():
        assert getattr(owner, attr) is value, f"{owner_name}.{attr} not restored"


def test_alias_calls_record_the_defining_layer():
    tracer = Tracer("alias")
    tracer.install()
    try:
        a = harmonics.design_matrix(so3harmonics.grids.healpix_s2(1), 2)
        specconv.ridge_solver(a)
        specconv.ridge_solver(a)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("harmonics.ridge_solver") == 2
    assert len(tracer.distinct["harmonics.ridge_solver"]) == 1


def test_install_twice_is_refused():
    tracer = Tracer("twice")
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()


def test_exception_still_closes_the_span():
    tracer = Tracer("raise")
    tracer.install()
    try:
        with pytest.raises(harmonics.IllConditionedError):
            harmonics.ridge_solver(np.zeros((4, 2)))
    finally:
        tracer.uninstall()
    assert tracer.spans[-1][0] == "harmonics.ridge_solver"
    assert tracer._stack == []


# A hand-built tree:  a [0, 10] -> b [1, 4], c [5, 9] -> d [6, 7];  a [20, 22]
HAND_SPANS = [
    ("a", 0.0, 10.0, -1),
    ("b", 1.0, 4.0, 0),
    ("c", 5.0, 9.0, 0),
    ("d", 6.0, 7.0, 2),
    ("a", 20.0, 22.0, -1),
]


def test_self_time_on_hand_built_tree():
    times = layer_times(HAND_SPANS)
    assert times["a"]["calls"] == 2
    assert times["a"]["self_s"] == pytest.approx(3.0 + 2.0)
    assert times["a"]["total_s"] == pytest.approx(12.0)
    assert times["b"]["self_s"] == pytest.approx(3.0)
    assert times["c"]["self_s"] == pytest.approx(3.0)
    assert times["d"]["self_s"] == pytest.approx(1.0)
    assert sum(t["self_s"] for t in times.values()) == pytest.approx(12.0)


def test_descendant_counts_follow_parents():
    assert descendant_counts(HAND_SPANS, "a", "d") == 1
    assert descendant_counts(HAND_SPANS, "c", "d") == 1
    assert descendant_counts(HAND_SPANS, "b", "d") == 0


def test_phase_coverage_excludes_orchestration_self_time():
    spans = [
        ("phase.train", 0.0, 10.0, -1),
        ("harness.train", 0.5, 9.5, 0),
        ("specconv.forward_trunk", 1.0, 9.0, 1),
    ]
    assert phase_coverage(spans) == {"train": pytest.approx(0.8)}
