"""Layer spans for the pipeline benchmark, installed from outside the library.

``Tracer.install`` replaces every public function of every ``so3harmonics``
module at each module attribute that refers to it, so a call made through
``harness.forward_trunk`` or ``specconv.ridge_solver`` is recorded exactly
like one made through the defining module.  A few methods are wrapped on
their classes.  ``Tracer.uninstall`` puts every original object back.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span or -1.  Spans stay in memory until ``write`` is called at
the end of the run.  Self time of a span is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import pkgutil
import time
import types
from contextlib import contextmanager

PACKAGE = "so3harmonics"

# Public methods worth a span of their own; everything else on classes is
# a cheap accessor.
WRAPPED_METHODS = (("grids", "SO3Grid", "with_psi_table"),
                   ("specconv", "LocalSO3Filter", "spectral_blocks"))


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.returned: dict[str, list] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block (used for workload phases)."""
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, time.perf_counter())

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, clock())
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> int:
        """Wrap every public library function; returns the attribute count."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{PACKAGE}.{info.name}")
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith(PACKAGE + ".")):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self.wrap(value)
                self._patch(module, attr, wrapper)
        for module_name, cls_name, attr in WRAPPED_METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"),
                          cls_name)
            original = vars(cls)[attr]
            self._patch(cls, attr, self.wrap(
                original, f"{module_name}.{cls_name}.{attr}"))
        return len(self._patched)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one per span."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# Counters that need the arguments or the result of a call
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _forward_rows(t: Tracer, args, kwargs, result) -> None:
    t.add("specconv.forward_trunk.rows", result[0].shape[0])


def _psi_rows(t: Tracer, args, kwargs, result) -> None:
    t.add("wigner.rotations_to_psi.rows", 1 if result.ndim == 1 else result.shape[0])


def _table_read(t: Tracer, args, kwargs, result) -> None:
    table = _arg(args, kwargs, 1, "grid").psi_table
    t.add("estimation.infer_distribution.table_mb_read",
          table.shape[0] * table.shape[1] * 8 / 1e6)


def _ridge_input(t: Tracer, args, kwargs, result) -> None:
    a = _arg(args, kwargs, 0, "a")
    digest = hashlib.blake2b(a.tobytes(), digest_size=16).digest()
    t.distinct.setdefault("harmonics.ridge_solver", set()).add((a.shape, digest))


def _grid_returned(t: Tracer, args, kwargs, result) -> None:
    seen = t.returned.setdefault("harness.inference_grid", [])
    if any(result is earlier for earlier in seen):
        t.add("harness.inference_grid.hits", 1)
    else:
        seen.append(result)


def _table_built(t: Tracer, args, kwargs, result) -> None:
    if result is not args[0]:
        t.add("grids.SO3Grid.with_psi_table.table_mb", result.psi_table.nbytes / 1e6)


def _blob_read(t: Tracer, args, kwargs, result) -> None:
    t.add("binio.read_blob.mb", os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6)


OBSERVERS = {
    "specconv.forward_trunk": _forward_rows,
    "wigner.rotations_to_psi": _psi_rows,
    "estimation.infer_distribution": _table_read,
    "harmonics.ridge_solver": _ridge_input,
    "harness.inference_grid": _grid_returned,
    "grids.SO3Grid.with_psi_table": _table_built,
    "binio.read_blob": _blob_read,
}


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

def _child_time(spans) -> list[float]:
    """Per span, the summed durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time and inclusive time, in seconds."""
    child = _child_time(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
        row["total_s"] += end - start
    return out


def descendant_counts(spans, ancestor: str, name: str) -> int:
    """Number of ``name`` spans that run inside an ``ancestor`` span."""
    inside = [False] * len(spans)
    count = 0
    for i, (span, _, _, parent) in enumerate(spans):
        inside[i] = parent >= 0 and (inside[parent] or spans[parent][0] == ancestor)
        if inside[i] and span == name:
            count += 1
    return count


def phase_coverage(spans, phase_prefix: str = "phase.",
                   orchestration_prefix: str = "harness.") -> dict[str, float]:
    """Share of each phase's wall time spent inside library layers.

    Time counts as uncovered when it is the self time of a phase span or of
    a ``harness`` span inside one (the orchestration between layer calls).
    Spans of the same phase are pooled.
    """
    child = _child_time(spans)
    phase_of = [-1] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            phase_of[i] = parent if spans[parent][0].startswith(phase_prefix) \
                else phase_of[parent]
    wall: dict[str, float] = {}
    gap: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        own = (end - start) - child[i]
        if name.startswith(phase_prefix):
            key = name[len(phase_prefix):]
            wall[key] = wall.get(key, 0.0) + (end - start)
            gap[key] = gap.get(key, 0.0) + own
        elif name.startswith(orchestration_prefix) and phase_of[i] >= 0:
            key = spans[phase_of[i]][0][len(phase_prefix):]
            gap[key] = gap.get(key, 0.0) + own
    return {key: 1.0 - gap[key] / total if total > 0 else 1.0
            for key, total in wall.items()}
