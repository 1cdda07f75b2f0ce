"""Per-layer metrics of the traced run, computed from its spans.

``X.calls`` is the number of spans named X and ``X.busy_s`` their self
time.  The other metrics are derived as documented in README.md.
"""

from __future__ import annotations

from tracer import Tracer, descendant_counts, layer_times, phase_coverage

PER_LAYER = (
    ("specconv.forward_trunk.calls", "count", "higher"),
    ("specconv.forward_trunk.busy_s", "s", "lower"),
    ("specconv.forward_trunk.ms_per_sample", "ms", "lower"),
    ("specconv.backward_trunk.calls", "count", "higher"),
    ("specconv.backward_trunk.busy_s", "s", "lower"),
    ("specconv.head_wigner.busy_s", "s", "lower"),
    ("specconv.backward_head_wigner.busy_s", "s", "lower"),
    ("harmonics.design_matrix.calls", "count", "lower"),
    ("harmonics.design_matrix.busy_s", "s", "lower"),
    ("harmonics.ridge_solver.calls", "count", "lower"),
    ("harmonics.ridge_solver.busy_s", "s", "lower"),
    ("harmonics.ridge_solver.distinct_ratio", "ratio", "higher"),
    ("mapper.sample_mask.calls", "count", "higher"),
    ("mapper.sample_mask.busy_s", "s", "lower"),
    ("mapper.bilinear_matrix.calls", "count", "higher"),
    ("mapper.bilinear_matrix.busy_s", "s", "lower"),
    ("mapper.edge_weights.calls", "count", "higher"),
    ("mapper.edge_weights.busy_s", "s", "lower"),
    ("estimation.loss_and_grad.calls", "count", "higher"),
    ("estimation.loss_and_grad.busy_s", "s", "lower"),
    ("estimation.infer_distribution.calls", "count", "higher"),
    ("estimation.infer_distribution.busy_s", "s", "lower"),
    ("estimation.infer_distribution.table_mb_read", "MB", "lower"),
    ("estimation.argmax_pose.busy_s", "s", "lower"),
    ("estimation.gradient_ascent_pose.calls", "count", "higher"),
    ("estimation.gradient_ascent_pose.busy_s", "s", "lower"),
    ("estimation.gradient_ascent_pose.psi_calls_per_sample", "count", "lower"),
    ("wigner.rotations_to_psi.calls", "count", "lower"),
    ("wigner.rotations_to_psi.rows", "count", "lower"),
    ("wigner.rotations_to_psi.busy_s", "s", "lower"),
    ("wigner.wigner_block_stacks_real.busy_s", "s", "lower"),
    ("rotations.matrices_to_zyz.calls", "count", "lower"),
    ("grids.so3_healpix.busy_s", "s", "lower"),
    ("grids.SO3Grid.with_psi_table.busy_s", "s", "lower"),
    ("grids.SO3Grid.with_psi_table.table_mb", "MB", "lower"),
    ("harness.inference_grid.calls", "count", "lower"),
    ("harness.inference_grid.hit_ratio", "ratio", "higher"),
    ("harness.train.busy_s", "s", "lower"),
    ("harness.evaluate.busy_s", "s", "lower"),
    ("binio.read_blob.calls", "count", "lower"),
    ("binio.read_blob.busy_s", "s", "lower"),
    ("binio.read_blob.mb", "MB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_min", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}

REFINE = "estimation.gradient_ascent_pose"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, overhead_pct: float) -> dict[str, float]:
    """Every PER_LAYER value; layers a workload never calls read 0."""
    times = layer_times(tracer.spans)

    def stat(layer: str, key: str) -> float:
        return times.get(layer, {}).get(key, 0)

    counters = tracer.counters
    derived = {
        "specconv.forward_trunk.ms_per_sample": _ratio(
            stat("specconv.forward_trunk", "total_s") * 1e3,
            counters.get("specconv.forward_trunk.rows", 0)),
        "harmonics.ridge_solver.distinct_ratio": _ratio(
            len(tracer.distinct.get("harmonics.ridge_solver", ())),
            stat("harmonics.ridge_solver", "calls")),
        "estimation.gradient_ascent_pose.psi_calls_per_sample": _ratio(
            descendant_counts(tracer.spans, REFINE, "wigner.rotations_to_psi"),
            stat(REFINE, "calls")),
        "harness.inference_grid.hit_ratio": _ratio(
            counters.get("harness.inference_grid.hits", 0),
            stat("harness.inference_grid", "calls")),
        "trace.overhead_pct": overhead_pct,
        "trace.coverage_min": min(phase_coverage(tracer.spans).values(), default=0.0),
        "trace.spans": len(tracer.spans),
    }
    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if name in derived:
            out[name] = float(derived[name])
        elif key == "calls":
            out[name] = float(stat(layer, "calls"))
        elif key == "busy_s":
            out[name] = float(stat(layer, "self_s"))
        else:
            out[name] = float(counters.get(name, 0.0))
    return out
