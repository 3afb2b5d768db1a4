"""Workload ``train``: ``Trainer`` optimizer steps under implicit Adams.

Inputs are USHCN-like interpolation batches (``repro.data.load_ushcn``):
32 series per batch, about 42 observed time points and 18 held-out
targets each, 5 variables plus their mask channels.  A step is collate,
forward, ``loss.backward()``, gradient clipping and an Adam update, the
body of ``Trainer.train_epoch``.  The training pool comes from the
workload seed; the held-out set and the initial weights do not, so
``heldout_mse`` moves only with what training did.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from common import (PAPER_DEFAULTS, batch_call_metrics, peak_rss_mb,
                    timed_setups)
from composed import TracedRHS, check_composable, composed_predictions
from layers import layer_metrics
from spans import Tracer

from repro.autodiff import masked_mse_loss
from repro.autodiff.profiler import tape_profile
from repro.core import DiffODE, DiffODEConfig
from repro.data import collate, load_ushcn
from repro.training import TrainConfig, Trainer, clip_grad_norm

BATCH = 32
POOL_SERIES = 256
#: days per station; the sparsity protocol leaves ~60 time points, of
#: which 30% are held out as targets
LENGTH = 120
HELDOUT_SEED = 7919
HELDOUT_SERIES = 64
#: ``heldout_mse`` is read after exactly this many steps, so it does not
#: depend on how many steps fit in the run
MSE_AFTER_STEPS = 16
#: coordinates of the finite-difference gradient check
FD_COORDS = (("encoder.cell.w_ih", (0, 0)),
             ("enc_proj.weight", (5, 3)),
             ("latent_dynamics.phi.fc0.weight", (3, 5)),
             ("latent_dynamics.h2", (3,)),
             ("dynamics.f_r.fc1.weight", (2, 1)),
             ("head.fc1.weight", (4, 2)))
FD_STEP = 1e-6


def make_inputs(seed: int):
    pool = load_ushcn(num_stations=POOL_SERIES, length=LENGTH, seed=seed)
    heldout = load_ushcn(num_stations=HELDOUT_SERIES, length=LENGTH,
                         seed=HELDOUT_SEED)
    return pool, heldout


def model_config(ds) -> DiffODEConfig:
    return DiffODEConfig(input_dim=ds.input_dim, out_dim=ds.num_features,
                         method="implicit_adams", **PAPER_DEFAULTS)


def batch_stream(pool, rng):
    """Shuffled passes over the pool, ``BATCH`` series at a time."""
    while True:
        order = rng.permutation(len(pool))
        for s in range(0, len(order) - BATCH + 1, BATCH):
            yield [pool.samples[i] for i in order[s:s + BATCH]]


def build_trainer(cfg, warm_batch) -> Trainer:
    """Model + Trainer, warmed by one forward/backward without update."""
    trainer = Trainer(DiffODE(cfg), "regression",
                      TrainConfig(batch_size=BATCH))
    trainer.optimizer.zero_grad()
    trainer.loss_fn(warm_batch).backward()
    trainer.optimizer.zero_grad()
    return trainer


def train_step(trainer: Trainer, batch) -> float:
    """One optimizer step, as ``Trainer.train_epoch`` takes it."""
    trainer.optimizer.zero_grad()
    loss = trainer.loss_fn(batch)
    loss.backward()
    clip_grad_norm(trainer.optimizer.params, trainer.config.clip_norm)
    trainer.optimizer.step()
    return loss.item()


def traced_loss(trainer: Trainer, batch, tracer, rhs):
    """Composed forward + backward; returns ``(loss tensor, stats)``."""
    out, stats = composed_predictions(trainer.model, batch, tracer, rhs)
    loss = masked_mse_loss(out, batch.target_values, batch.target_mask)
    with tracer.span("autodiff.backward"):
        loss.backward()
    return loss, stats


def traced_step(trainer: Trainer, samples, tracer, rhs, key):
    with tracer.span("step", key):
        with tracer.span("data.collate"):
            batch = collate(samples)
        with tracer.span("training.optimizer"):
            trainer.optimizer.zero_grad()
        loss, stats = traced_loss(trainer, batch, tracer, rhs)
        with tracer.span("training.optimizer"):
            clip_grad_norm(trainer.optimizer.params,
                           trainer.config.clip_norm)
            trainer.optimizer.step()
    return loss.item(), stats


# ----------------------------------------------------------------------
# answer checks (outside every timed window)
# ----------------------------------------------------------------------
def gradient_check(cfg, batch) -> tuple[bool, float]:
    """Analytic gradient vs central finite differences at a few weights.

    Returns ``(ok, worst relative error)``.
    """
    model = DiffODE(cfg)
    trainer = Trainer(model, "regression", TrainConfig(batch_size=BATCH))
    params = dict(model.named_parameters())
    model.zero_grad()
    trainer.loss_fn(batch).backward()
    worst = 0.0
    ok = True
    for name, idx in FD_COORDS:
        p = params[name]
        analytic = float(p.grad[idx])
        orig = float(p.data[idx])
        p.data[idx] = orig + FD_STEP
        plus = trainer.loss_fn(batch).item()
        p.data[idx] = orig - FD_STEP
        minus = trainer.loss_fn(batch).item()
        p.data[idx] = orig
        fd = (plus - minus) / (2.0 * FD_STEP)
        err = abs(fd - analytic)
        worst = max(worst, err / max(abs(analytic), 1e-8))
        ok &= err <= 1e-7 + 1e-4 * abs(analytic)
    return ok, worst


def bitwise_check(trainer: Trainer, batch) -> bool:
    """The composed traced step equals ``Trainer.loss_fn`` bitwise:
    same loss bits, same gradient bits, on the current weights."""
    params = trainer.optimizer.params
    trainer.optimizer.zero_grad()
    loss = trainer.loss_fn(batch)
    loss.backward()
    ref_loss = loss.data.tobytes()
    ref_grads = [None if p.grad is None else p.grad.tobytes()
                 for p in params]
    trainer.optimizer.zero_grad()
    tracer = Tracer()
    with tape_profile():
        loss, _ = traced_loss(trainer, batch, tracer,
                              TracedRHS(tracer, trainer.model.dynamics))
    same = loss.data.tobytes() == ref_loss and all(
        (None if p.grad is None else p.grad.tobytes()) == g
        for p, g in zip(params, ref_grads))
    trainer.optimizer.zero_grad()
    return same


# ----------------------------------------------------------------------
def _untraced_steps(trainer, stream, seconds, min_steps, on_step=None):
    step_s, latency_s = [], []
    deadline = time.perf_counter() + seconds
    while len(step_s) < min_steps or time.perf_counter() < deadline:
        samples = next(stream)
        t0 = time.perf_counter()
        batch = collate(samples)
        t1 = time.perf_counter()
        loss = train_step(trainer, batch)
        t2 = time.perf_counter()
        step_s.append(t2 - t1)
        latency_s.append(t2 - t0)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss {loss}")
        if on_step is not None:
            on_step(len(step_s))
    return step_s, latency_s


def run(seed: int, seconds: float, trace: bool, span_path=None) -> dict:
    pool, heldout = make_inputs(seed)
    rng = np.random.default_rng(seed)
    cfg = model_config(pool)
    warm = collate(heldout.samples[:BATCH])
    fd_ok, fd_err = gradient_check(cfg, collate(heldout.samples[:8]))

    trainer, setup_times = timed_setups(lambda: build_trainer(cfg, warm))
    mse_init = trainer.evaluate(heldout).mse
    trainer.model.train()
    stream = batch_stream(pool, rng)

    if trace:
        return _run_traced(trainer, stream, seconds, warm, fd_ok,
                           span_path)

    snapshot = {}

    def on_step(n):
        if n == MSE_AFTER_STEPS:           # between steps: untimed
            snapshot.update(trainer.model.state_dict())

    step_s, latency_s = _untraced_steps(trainer, stream, seconds,
                                        MSE_AFTER_STEPS, on_step)
    trainer.model.load_state_dict(snapshot)
    mse_after = trainer.evaluate(heldout).mse
    steps = len(step_s)
    correct = bool(fd_ok and mse_after < mse_init)
    timing, notes = batch_call_metrics(step_s, latency_s, BATCH)
    metrics = {"setup_s": statistics.median(setup_times),
               "peak_rss_mb": peak_rss_mb(), "heldout_mse": mse_after,
               **timing}
    notes.update(fd_worst_rel_err=fd_err, mse_init=mse_init, steps=steps)
    return {"correct": correct, "attempted": steps, "failed": 0,
            "metrics": metrics, "notes": notes}


def _run_traced(trainer, stream, seconds, check_batch, fd_ok,
                span_path) -> dict:
    """Half the run untraced, half traced; per-layer metrics per step."""
    check_composable(trainer.model)
    same = bitwise_check(trainer, check_batch)
    _, base_latency = _untraced_steps(trainer, stream, seconds / 2.0, 3)

    tracer = Tracer()
    rhs = TracedRHS(tracer, trainer.model.dynamics)
    nfev = steps_taken = rejects = 0
    latency_s, nodes, mbytes = [], 0, 0.0
    deadline = time.perf_counter() + seconds / 2.0
    n = 0
    while n < 3 or time.perf_counter() < deadline:
        samples = next(stream)
        with tape_profile() as prof:
            t0 = time.perf_counter()
            _, stats = traced_step(trainer, samples, tracer, rhs,
                                   key=f"step-{n}")
            latency_s.append(time.perf_counter() - t0)
        nodes += prof.nodes
        mbytes += prof.bytes_allocated / 1e6
        nfev += stats.nfev
        steps_taken += stats.steps
        rejects += stats.rejects
        n += 1
    if span_path is not None:
        tracer.write_jsonl(span_path)
    metrics = layer_metrics(tracer.spans, n)
    metrics.update({
        "odeint.nfev": nfev / n,
        "odeint.steps": steps_taken / n,
        "odeint.rejects": rejects / n,
        "autodiff.tape_nodes": nodes / n,
        "autodiff.tape_nodes_rhs": rhs.nodes / n,
        "autodiff.tape_mb": mbytes / n,
        "trace.overhead_frac": (statistics.median(latency_s)
                                / statistics.median(base_latency) - 1.0),
    })
    correct = bool(fd_ok and same
                   and metrics["core.rhs_calls"] == metrics["odeint.nfev"])
    return {"correct": correct, "attempted": n + len(base_latency),
            "failed": 0, "metrics": metrics,
            "notes": {"bitwise_equal": same, "traced_steps": n}}
