"""The DIFFODE regression forward, composed from the model's public calls.

The traced run of ``train`` and ``infer`` replaces one
``model.forward_regression`` call with the same sequence of public
calls, each inside a span::

    encode -> build_contexts/bind -> initial_state -> solve (timed RHS)
           -> interpolate_grid_states -> head

so every layer's time is measured at its boundary.  The composition
performs the same arithmetic in the same order, so its outputs equal
``forward_regression``'s bitwise; the traced run checks that.
"""

from __future__ import annotations

from repro.autodiff.profiler import active_profiler
from repro.core import interpolate_grid_states
from repro.odeint import ADAPTIVE_METHODS, SolverOptions, solve

__all__ = ["TracedRHS", "solver_options", "check_composable",
           "composed_predictions"]


class TracedRHS:
    """The model's ODE right-hand side with each call recorded as a span.

    Also counts the ops created inside RHS calls while a tape profiler
    is active (``autodiff.tape_nodes_rhs``).
    """

    def __init__(self, tracer, dynamics):
        self.tracer = tracer
        self.dynamics = dynamics
        self.nodes = 0

    def __call__(self, t, y):
        prof = active_profiler()
        before = prof.nodes if prof is not None else 0
        with self.tracer.span("core.rhs"):
            out = self.dynamics(t, y)
        if prof is not None:
            self.nodes += prof.nodes - before
        return out


def solver_options(config) -> SolverOptions:
    """The options ``DiffODE.integrate`` builds for this config."""
    if config.method in ADAPTIVE_METHODS:
        return SolverOptions(rtol=config.rtol, atol=config.atol,
                             adjoint=config.adjoint)
    return SolverOptions(step_size=config.step_size, adjoint=config.adjoint)


def check_composable(model) -> None:
    """The composition mirrors the default regression path only."""
    cfg = model.config
    if (cfg.adjoint or not cfg.use_attention or cfg.out_dim is None
            or getattr(model, "union_forward", False)):
        raise ValueError("composed forward covers the default DIFFODE "
                         "regression path (attention, no adjoint, no "
                         "union forward)")


def composed_predictions(model, batch, tracer, rhs):
    """``model.forward_regression`` on ``batch``, one span per layer.

    ``rhs`` is the right-hand side the solve calls: ``model.dynamics``,
    or a :class:`TracedRHS` around it to time each call.  Returns
    ``(predictions, Solution.stats)``.
    """
    cfg = model.config
    with tracer.span("core.encode"):
        z = model.encode(batch.values, batch.times, batch.mask)
    with tracer.span("core.contexts"):
        contexts = model.build_contexts(z, batch.mask)
        model.latent_dynamics.bind(contexts)
    with tracer.span("core.init"):
        y0 = model.initial_state(z, contexts)
    grid = model.grid()
    with tracer.span("odeint.solve"):
        sol = solve(rhs, y0, grid, method=cfg.method,
                    options=solver_options(cfg))
    with tracer.span("core.readout"):
        at_queries = interpolate_grid_states(sol.ys, grid,
                                             batch.target_times)
        out = model.head(at_queries)
    return out, sol.stats
