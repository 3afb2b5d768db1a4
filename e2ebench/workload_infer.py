"""Workload ``infer``: ``no_grad`` batched ``forward_regression`` with dopri5.

Inputs are held-out PhysioNet-like series (``repro.data.generate_patient``
under the interpolation protocol of ``load_physionet``): about 190
observed time points and 74 input channels (37 variables plus their
masks) per series, 32 series per batch call.  The channel loadings that
tie a population together are fixed; the workload seed draws the
patients, so seeds differ in patients, not in population.  The model is
written to a checkpoint (input generation, untimed) and loaded back
during set-up.  Each run makes whole passes over the pool of series, so
every batch weighs the same in every run.  ``heldout_mse`` is read on a
fixed batch of patients that does not depend on the seed, so it moves
only with the program's answers.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from common import (PAPER_DEFAULTS, batch_call_metrics, peak_rss_mb,
                    timed_setups, work_file)
from composed import TracedRHS, check_composable, composed_predictions
from layers import layer_metrics
from spans import Tracer

from repro.autodiff import no_grad
from repro.core import DiffODE, DiffODEConfig
from repro.data import (NUM_CHANNELS, collate, generate_patient,
                        make_interpolation_sample)
from repro.training import load_diffode, save_diffode, scaled_mse

BATCH = 32
POOL_SERIES = 64
POPULATION_SEED = 2012
MIN_OBS = 12
HOLDOUT_FRAC = 0.3
HELDOUT_SEED = 7919
#: the band a prediction must fall in around the single-series solve
BAND_FACTOR = 50.0


def make_inputs(seed: int, n: int = POOL_SERIES) -> list[list]:
    """``n`` series drawn from ``seed``, in batch-sized groups."""
    loadings = np.random.default_rng(POPULATION_SEED).normal(
        size=NUM_CHANNELS)
    rng = np.random.default_rng(seed)
    samples = []
    while len(samples) < n:
        times, values, fmask = generate_patient(rng, loadings)
        if len(times) >= 2 * MIN_OBS:
            samples.append(make_interpolation_sample(
                times, values, fmask, HOLDOUT_FRAC, rng, MIN_OBS))
    return [samples[s:s + BATCH] for s in range(0, n, BATCH)]


def model_config() -> DiffODEConfig:
    return DiffODEConfig(input_dim=2 * NUM_CHANNELS, out_dim=NUM_CHANNELS,
                         method="dopri5", **PAPER_DEFAULTS)


def predict(model, batch) -> np.ndarray:
    with no_grad():
        out = model.forward_regression(batch.values, batch.times,
                                       batch.mask, batch.target_times,
                                       query_mask=batch.target_mask)
    return out.data


def build_model(path, warm_batch, tracer=None):
    """Load the checkpoint and warm the model with one batch call."""
    if tracer is None:
        model = load_diffode(path)
    else:
        with tracer.span("training.checkpoint_load"):
            model = load_diffode(path)
    model.eval()
    predict(model, warm_batch)
    return model


# ----------------------------------------------------------------------
# answer checks (outside every timed window)
# ----------------------------------------------------------------------
def single_series_prediction(model, sample) -> np.ndarray:
    """One series solved on its own, composed from the public calls."""
    with no_grad():
        out, _ = composed_predictions(model, collate([sample]), Tracer(),
                                      model.dynamics)
    return out.data[0]


def band_check(model, groups, preds) -> tuple[int, float]:
    """Series whose batched prediction leaves the band; worst band ratio."""
    cfg = model.config
    bad, worst = 0, 0.0
    for samples, batch_pred in zip(groups, preds):
        for i, sample in enumerate(samples):
            ref = single_series_prediction(model, sample)
            got = batch_pred[i, :len(ref)]
            band = BAND_FACTOR * (cfg.atol + cfg.rtol * np.abs(ref))
            ratio = float(np.max(np.abs(got - ref) / band))
            worst = max(worst, ratio)
            bad += not ratio <= 1.0
    return bad, worst


def heldout_mse(model, batch) -> float:
    """Masked MSE of the batched prediction against the held-out targets."""
    return scaled_mse(predict(model, batch), batch.target_values,
                      batch.target_mask)


# ----------------------------------------------------------------------
def _passes(model, groups, seconds, min_passes=1):
    """Whole passes over the pool until ``seconds`` have gone by.

    Returns the call and collate-plus-call times and the first pass's
    predictions.
    """
    step_s, latency_s, first = [], [], []
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < min_passes or time.perf_counter() < deadline:
        for samples in groups:
            t0 = time.perf_counter()
            batch = collate(samples)
            t1 = time.perf_counter()
            pred = predict(model, batch)
            t2 = time.perf_counter()
            step_s.append(t2 - t1)
            latency_s.append(t2 - t0)
            if passes == 0:
                first.append(pred)
        passes += 1
    return step_s, latency_s, first


def run(seed: int, seconds: float, trace: bool, span_path=None) -> dict:
    groups = make_inputs(seed)
    cfg = model_config()
    path = work_file(f"infer-{os.getpid()}.npz")
    save_diffode(DiffODE(cfg), path)
    warm = collate(make_inputs(HELDOUT_SEED, BATCH)[0])

    if trace:
        return _run_traced(path, groups, warm, seconds, span_path)

    model, setup_times = timed_setups(lambda: build_model(path, warm))
    step_s, latency_s, preds = _passes(model, groups, seconds)
    bad, worst = band_check(model, groups, preds)
    finite = all(np.all(np.isfinite(p)) for p in preds)
    n_calls = len(step_s)
    timing, notes = batch_call_metrics(step_s, latency_s, BATCH)
    metrics = {"setup_s": statistics.median(setup_times),
               "peak_rss_mb": peak_rss_mb(),
               "heldout_mse": heldout_mse(model, warm), **timing}
    notes.update(band_worst_ratio=worst, series_out_of_band=bad,
                 batch_calls=n_calls)
    return {"correct": bool(finite and bad == 0),
            "attempted": n_calls * BATCH, "failed": 0, "metrics": metrics,
            "notes": notes}


def _run_traced(path, groups, warm, seconds, span_path) -> dict:
    """Half the run untraced, half traced; per-layer metrics per call."""
    tracer = Tracer()
    for _ in range(3):
        model = build_model(path, warm, tracer)
    load_ms = [1e3 * s.duration for s in tracer.spans]
    check_composable(model)

    # The composed forward equals forward_regression bitwise.
    rhs = TracedRHS(Tracer(), model.dynamics)
    same = True
    for samples in groups:
        batch = collate(samples)
        with no_grad():
            out, _ = composed_predictions(model, batch, Tracer(), rhs)
        same &= out.data.tobytes() == predict(model, batch).tobytes()

    _, base_latency, _ = _passes(model, groups, seconds / 2.0)
    tracer = Tracer()
    rhs = TracedRHS(tracer, model.dynamics)
    nfev = steps = rejects = 0
    latency_s = []
    deadline = time.perf_counter() + seconds / 2.0
    n = 0
    while n == 0 or time.perf_counter() < deadline:
        for samples in groups:
            t0 = time.perf_counter()
            with tracer.span("call", key=f"call-{n}"):
                with tracer.span("data.collate"):
                    batch = collate(samples)
                with no_grad():
                    _, stats = composed_predictions(model, batch, tracer,
                                                    rhs)
            latency_s.append(time.perf_counter() - t0)
            nfev += stats.nfev
            steps += stats.steps
            rejects += stats.rejects
            n += 1
    if span_path is not None:
        tracer.write_jsonl(span_path)
    metrics = layer_metrics(tracer.spans, n)
    metrics.update({
        "odeint.nfev": nfev / n,
        "odeint.steps": steps / n,
        "odeint.rejects": rejects / n,
        "training.checkpoint_load_ms": statistics.median(load_ms),
        "trace.overhead_frac": (statistics.median(latency_s)
                                / statistics.median(base_latency) - 1.0),
    })
    correct = bool(same
                   and metrics["core.rhs_calls"] == metrics["odeint.nfev"])
    return {"correct": correct, "attempted": (n + len(base_latency)) * BATCH,
            "failed": 0, "metrics": metrics,
            "notes": {"bitwise_equal": same, "traced_calls": n}}
