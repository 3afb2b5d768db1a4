"""Per-layer metrics derived from the traced run's spans."""

from __future__ import annotations

from spans import self_times

__all__ = ["layer_metrics", "SPAN_METRICS"]

#: span name -> per-layer metric holding its self time (ms per operation)
SPAN_METRICS = {
    "data.collate": "data.collate_ms",
    "core.encode": "core.encode_ms",
    "core.contexts": "core.contexts_ms",
    "core.init": "core.init_ms",
    "core.readout": "core.readout_ms",
    "core.rhs": "core.rhs_ms",
    "odeint.solve": "odeint.overhead_ms",
    "autodiff.backward": "autodiff.backward_ms",
    "training.optimizer": "training.optimizer_ms",
}


def layer_metrics(spans, n_ops: int) -> dict:
    """Self time per layer, per operation (step, batch call or request).

    ``odeint.solve_ms`` is the solve span's whole duration and
    ``odeint.overhead_ms`` its self time: the solve minus its RHS calls.
    ``core.rhs_calls`` counts RHS spans per operation.
    """
    own = self_times(spans)
    out = {}
    for span_name, metric in SPAN_METRICS.items():
        total, _ = own.get(span_name, (0.0, 0))
        out[metric] = 1e3 * total / n_ops
    solve_total = sum(s.duration for s in spans if s.name == "odeint.solve")
    out["odeint.solve_ms"] = 1e3 * solve_total / n_ops
    out["core.rhs_calls"] = own.get("core.rhs", (0.0, 0))[1] / n_ops
    return out
