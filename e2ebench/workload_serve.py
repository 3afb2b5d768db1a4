"""Workload ``serve``: open-loop requests, then cold bursts, in-process.

A ``ModelServer(checkpoint=...)`` with its default micro-batcher and
in-process engine (dopri5) is driven through ``server.batcher.submit``,
with every request and response framed and unframed by
``repro.serving.protocol`` as on the wire.  Requests stay in one
process: the socket protocol carries one request per connection at a
time, so an open loop over sockets would need more connections than a
2-CPU host has cores.

Open loop.  A round holds ``SERIES_PER_ROUND`` series drawn from the
workload seed and one fixed series, whose inputs do not depend on the
seed; ``heldout_mse`` is read on the fixed series' answers.  Each
series' requests follow its lifecycle, in order:

1. ``cold``    first request: encode, contexts, union-grid solve;
2. ``ahead``   ``AHEAD_POLLS`` polls that only move the query horizon
               ahead, served warm by a resumed solve;
3. ``behind``  two polls, one halfway through the ahead polls and one
               after them, each adding an observation behind the cached
               solver frontier, served warm by a re-solve from t=0;
4. ``after``   (fixed series only) one poll adding an observation after
               the frontier.  ``StreamSession.ingest`` does not reset the
               frontier for it, so the answer resumes from a state
               integrated under the old contexts and leaves the band of
               the offline solve: a known fault, counted in ``failed``.

Series start at stratified times over the open loop and each series'
requests arrive at sorted uniform times within ``SERIES_SPAN_S`` of its
start: together a Poisson process at ``RATE`` per second conditioned on
its count, so every run offers the same load for the same time, with
cold and slow requests spread evenly over it.  A series' next request
falls due only once its previous reply has arrived, so whether a
request is served warm or cold never depends on timing; latency is
timed from the due time.

Bursts.  Spread evenly over the open loop, with its clock stopped, the
same ``BURST`` cold series are submitted at once under fresh series ids,
so each burst does the same work and the cache never hits; the notes
report the median over bursts of burst requests over the time to drain
them.  Spreading them samples the host's fast and slow
spells alike, and the median keeps a spell that stalls a few bursts from
moving it.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from common import PAPER_DEFAULTS, SETUP_REPEATS, peak_rss_mb, work_file
from layers import layer_metrics
from spans import Tracer
from stats import open_loop_latencies, percentile, summarize

import repro.core.streaming as streaming_mod
import repro.serving.engine as engine_mod
from repro.autodiff import no_grad
from repro.core import DiffODE, DiffODEConfig
from repro.data import plan_union_buckets
from repro.odeint import SolverOptions, solve
from repro.serving import ModelServer, decode_body, encode_frame
from repro.training import save_diffode

CHANNELS = 5
#: open-loop arrivals per second; the engine is busy about a sixth of
#: the time, so a slow spell of the host builds little queue
RATE = 10.0
SERIES_PER_ROUND = 4
#: many cheap warm polls per series put the median well inside the warm
#: mode; two ``behind`` requests per series, a twelfth of all and the
#: slowest kind, put the 95th percentile near their middle, well inside
#: the slow mode of requests solved from t=0 and clear of the cold ones
AHEAD_POLLS = 20
N_OBS = 24
#: two micro-batches of cold series at once, four times a round
BURST = 32
BURSTS_PER_ROUND = 4
#: the open loop must hold enough requests for a 95th percentile with
#: ten samples beyond it
MIN_OPEN_LOOP = 200
#: share of ``--seconds`` the open loop is sized to fill
OPEN_LOOP_SHARE = 0.8
FIXED_SEED = 424242
BAND_FACTOR = 50.0
#: observations span [0, OBS_END]; the cold query horizon is HORIZON
OBS_END = 0.45
HORIZON = 0.5
#: a burst asks every series for the same fixed horizons
BURST_QUERY = np.array([0.2, 0.35, HORIZON])
POLL_STEP = 0.015
#: each series' requests arrive within this long a window
SERIES_SPAN_S = 4.0
PER_ROUND = SERIES_PER_ROUND * (3 + AHEAD_POLLS) + (4 + AHEAD_POLLS)
ROUND_S = PER_ROUND / RATE


@dataclass
class Request:
    series: str
    kind: str                    # cold | ahead | behind | after | burst
    times: np.ndarray
    values: np.ndarray
    query: np.ndarray
    truth: np.ndarray            # noise-free signal at the query times
    # filled in while the run goes
    due: float = 0.0
    sent: float = 0.0
    replied: float = 0.0
    response: dict = field(default_factory=dict)
    frame_s: float = 0.0

    def payload(self) -> dict:
        return {"op": "predict", "series_id": self.series,
                "times": self.times.tolist(),
                "values": self.values.tolist(),
                "query_times": self.query.tolist()}


class Signal:
    """Smooth multichannel signal a series observes with noise."""

    def __init__(self, rng):
        self.amp = rng.uniform(0.5, 1.5, CHANNELS)
        self.freq = rng.uniform(0.5, 3.0, CHANNELS)
        self.phase = rng.uniform(0.0, 2 * np.pi, CHANNELS)
        self.rng = rng

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)[:, None]
        return self.amp * np.sin(2 * np.pi * self.freq * t + self.phase)

    def observe(self, t) -> np.ndarray:
        return self(t) + 0.1 * self.rng.normal(size=(len(t), CHANNELS))


def lifecycle(rng, series: str, with_after: bool,
              cold_query=None) -> list[Request]:
    """One series' requests in order (see the module docstring).

    The cold request asks for two random times and the horizon, or for
    ``cold_query`` when given.
    """
    sig = Signal(rng)
    times = np.sort(rng.uniform(0.0, OBS_END, N_OBS))
    times = np.maximum.accumulate(times + 1e-4 * np.arange(N_OBS))
    values = sig.observe(times)
    cold_q = (np.sort(np.append(rng.uniform(0.1, OBS_END, 2), HORIZON))
              if cold_query is None else cold_query)
    reqs = [Request(series, "cold", times, values, cold_q, sig(cold_q))]
    frontier = HORIZON

    def poll(kind, t_new=None, lead=0.0):
        """A request ``lead`` past the frontier, after adding ``t_new``."""
        nonlocal times, values, frontier
        if t_new is not None:
            times = np.append(times, t_new)
            values = np.vstack([values, sig.observe([t_new])])
        q = frontier + lead + np.array([POLL_STEP / 2, POLL_STEP])
        frontier = q[-1]
        reqs.append(Request(series, kind, times, values, q, sig(q)))

    last, gap = times[-1], HORIZON - times[-1]
    for k in range(AHEAD_POLLS):
        if k == AHEAD_POLLS // 2:
            poll("behind", rng.uniform(last + gap / 4, last + gap / 2))
        poll("ahead")
    poll("behind", rng.uniform(last + 3 * gap / 4, HORIZON))
    if with_after:
        poll("after", frontier + POLL_STEP, lead=POLL_STEP)
    return reqs


def rounds_for(seconds: float) -> int:
    """Whole rounds that fill the open-loop share of ``seconds``, and
    at least enough for ``MIN_OPEN_LOOP`` requests."""
    return max(-(-MIN_OPEN_LOOP // PER_ROUND),
               round(seconds * OPEN_LOOP_SHARE / ROUND_S))


def make_inputs(seed: int, rounds: int):
    """Open-loop schedule ``[(offset_s, Request)]`` and the bursts.

    Series start at stratified times over the open loop, so cold first
    requests and slow ``behind`` polls are spread evenly over it rather
    than bunched; each series' requests then arrive at sorted uniform
    times within ``SERIES_SPAN_S`` of its start.
    """
    rng = np.random.default_rng(seed)
    series = []
    for r in range(rounds):
        group = [lifecycle(rng, f"s{seed}-{r}-{i}", with_after=False)
                 for i in range(SERIES_PER_ROUND)]
        group.insert(int(rng.integers(SERIES_PER_ROUND + 1)),
                     lifecycle(np.random.default_rng(FIXED_SEED + r),
                               f"fixed-{r}", with_after=True))
        series.extend(group)
    span = rounds * ROUND_S
    schedule = []
    for j, reqs in enumerate(series):
        start = span * (j + rng.uniform()) / len(series)
        offsets = start + np.sort(rng.uniform(0.0, SERIES_SPAN_S, len(reqs)))
        schedule.extend(zip(offsets.tolist(), reqs))
    schedule.sort(key=lambda item: item[0])
    cold = []
    for i in range(BURST):
        req = lifecycle(rng, f"b{seed}-{i}", with_after=False,
                        cold_query=BURST_QUERY)[0]
        req.kind = "burst"
        cold.append(req)
    bursts = [[replace(req, series=f"{req.series}-{k}") for req in cold]
              for k in range(rounds * BURSTS_PER_ROUND)]
    return schedule, bursts


def model_config() -> DiffODEConfig:
    return DiffODEConfig(input_dim=CHANNELS, out_dim=CHANNELS,
                         method="dopri5", **PAPER_DEFAULTS)


# ----------------------------------------------------------------------
# driving the server
# ----------------------------------------------------------------------
class LoadGen:
    """Submits requests to one server and records its batches."""

    def __init__(self, server, tracer=None):
        self.server = server
        self.tracer = tracer
        self.batches: list[tuple[float, float, int, str]] = []
        self.phase = "open"
        self._submitted: dict[int, float] = {}
        #: ``(phase, seconds)`` from submit to batch start, traced only
        self.queue_wait: list[tuple[str, float]] = []
        execute = server.backend.execute

        def timed_execute(payloads):
            start = time.perf_counter()
            if tracer is None:
                out = execute(payloads)
            else:
                with tracer.span("serving.engine", key=self.phase):
                    out = execute(payloads)
                self.queue_wait.extend(
                    (self.phase, start - self._submitted.pop(id(p)))
                    for p in payloads)
            self.batches.append((start, time.perf_counter(),
                                 len(payloads), self.phase))
            return out

        server.backend.execute = timed_execute

    async def submit(self, req: Request) -> None:
        t0 = time.perf_counter()
        payload = decode_body(encode_frame(req.payload())[4:])
        frame = time.perf_counter() - t0
        if self.tracer is not None:
            self._submitted[id(payload)] = time.perf_counter()
        response = await self.server.batcher.submit(payload)
        t1 = time.perf_counter()
        req.response = decode_body(encode_frame(response)[4:])
        req.replied = time.perf_counter()
        req.frame_s = frame + req.replied - t1


async def _send_when_due(gen: LoadGen, req: Request, scheduled: float,
                         previous) -> float:
    req.due = scheduled
    if previous is not None:
        req.due = max(scheduled, await previous)
    req.sent = time.perf_counter()
    await gen.submit(req)
    return req.replied


async def open_loop(gen: LoadGen, schedule, bursts=()) -> list[float]:
    """Send each request at its scheduled time, or once the series'
    previous reply is in, whichever is later.

    ``bursts`` are spread evenly over the schedule.  At each one the
    clock stops: the requests in flight are drained, the burst is sent
    and drained, and the rest of the schedule moves back by the pause,
    so no open-loop latency counts a burst.  Returns each burst's drain
    time.
    """
    first, last_offset = schedule[0][0], schedule[-1][0]
    marks = [(first + (last_offset - first) * (k + 0.5) / len(bursts), b)
             for k, b in enumerate(bursts)]
    start = time.perf_counter() + 0.01 - first
    last: dict[str, asyncio.Task] = {}
    tasks, burst_s = [], []
    for offset, req in schedule:
        while marks and offset >= marks[0][0]:
            mark, reqs = marks.pop(0)
            delay = start + mark - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            paused = time.perf_counter()
            await asyncio.gather(*tasks)
            gen.phase = "burst"
            burst_s.append(await burst(gen, reqs))
            gen.phase = "open"
            start += time.perf_counter() - paused
        delay = start + offset - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        task = asyncio.create_task(_send_when_due(
            gen, req, start + offset, last.get(req.series)))
        last[req.series] = task
        tasks.append(task)
    await asyncio.gather(*tasks)
    return burst_s


async def burst(gen: LoadGen, reqs) -> float:
    """Submit every request at once; seconds until the last reply."""
    start = time.perf_counter()
    for req in reqs:
        req.due = req.sent = start
    await asyncio.gather(*(gen.submit(r) for r in reqs))
    return time.perf_counter() - start


async def build_server(path, tracer=None) -> ModelServer:
    """Construct the server from its checkpoint and warm both paths
    with one cold and one warm request on a series of its own."""
    if tracer is None:
        server = ModelServer(checkpoint=path)
    else:
        with tracer.span("training.checkpoint_load"):
            server = ModelServer(checkpoint=path)
    warm = lifecycle(np.random.default_rng(FIXED_SEED - 1), "warm-up",
                     with_after=False)
    for req in warm[:2]:
        await server.batcher.submit(req.payload())
    return server


async def timed_setups(path, tracer=None):
    """``SETUP_REPEATS`` servers built in turn; returns the last one and
    the seconds each took.  The previous server is stopped and freed,
    untimed, before the next one is built."""
    times, server = [], None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            await server.stop()
        server = None
        gc.collect()
        start = time.perf_counter()
        server = await build_server(path, tracer)
        times.append(time.perf_counter() - start)
    return server, times


# ----------------------------------------------------------------------
# answer checks (outside every timed window)
# ----------------------------------------------------------------------
def offline_predictions(model, times, values, query) -> np.ndarray:
    """Single-series solve from t=0 over these observations."""
    t = np.asarray(times, dtype=np.float64)[None]
    v = np.asarray(values, dtype=np.float64)[None]
    mask = np.ones_like(t)
    cfg = model.config
    uniq, inv = np.unique(query, return_inverse=True)
    grid = np.concatenate(([0.0], uniq))
    with no_grad():
        z = model.encode(v, t, mask)
        contexts = model.build_contexts(z, mask)
        model.latent_dynamics.bind(contexts)
        y0 = model.initial_state(z, contexts)
        sol = solve(model.dynamics, y0, grid, method="dopri5",
                    options=SolverOptions(rtol=cfg.rtol, atol=cfg.atol))
        rows = model.head(sol.ys[1:]).data[:, 0, :]
    return rows[inv]


def check_responses(model, requests) -> dict[str, list[float]]:
    """Band ratio of every response against the offline solve, by kind.

    Requests over the same observations, of one series or of burst
    copies, share one offline solve over the union of their query times.
    Sets ``response["band_ratio"]``.
    """
    cfg = model.config
    groups: dict[tuple, list[Request]] = {}
    for req in requests:
        key = (req.times.tobytes(), req.values.tobytes())
        groups.setdefault(key, []).append(req)
    ratios: dict[str, list[float]] = {}
    for reqs in groups.values():
        query = np.concatenate([r.query for r in reqs])
        ref_all = offline_predictions(model, reqs[0].times, reqs[0].values,
                                      query)
        k = 0
        for req in reqs:
            ref = ref_all[k:k + len(req.query)]
            k += len(req.query)
            if not req.response.get("ok"):
                ratio = float("inf")
            else:
                got = np.asarray(req.response["predictions"])
                band = BAND_FACTOR * (cfg.atol + cfg.rtol * np.abs(ref))
                ratio = float(np.max(np.abs(got - ref) / band))
            ratios.setdefault(req.kind, []).append(ratio)
            req.response["band_ratio"] = ratio
    return ratios


def verdict(model, requests) -> tuple[bool, int, dict]:
    """``(correct, failed, per-kind tally)`` of every response.

    A request fails when its answer leaves the band; the run is correct
    when only the named fault's ``after`` requests failed.
    """
    ratios = check_responses(model, requests)
    failed = [r for r in requests if not r.response["band_ratio"] <= 1.0]
    tally = {k: {"n": len(v), "failed": sum(not x <= 1.0 for x in v),
                 "worst_band_ratio": max(v)} for k, v in ratios.items()}
    return all(r.kind == "after" for r in failed), len(failed), tally


def heldout_mse(requests) -> float:
    """MSE of the fixed series' answers against their noise-free signal,
    the faulty ``after`` polls excluded.  Their inputs do not depend on
    the seed, so this moves only with the program's answers."""
    return float(np.mean([
        np.mean((np.asarray(r.response["predictions"]) - r.truth) ** 2)
        for r in requests
        if r.series.startswith("fixed-") and r.kind != "after"]))


# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, span_path=None) -> dict:
    rounds = rounds_for(seconds)
    schedule, bursts = make_inputs(seed, rounds)
    path = work_file(f"serve-{os.getpid()}.npz")
    save_diffode(DiffODE(model_config()), path)
    if trace:
        return _run_traced(path, schedule, bursts, span_path)

    async def go():
        server, setup_s = await timed_setups(path)
        gen = LoadGen(server)
        t0 = time.perf_counter()
        burst_s = await open_loop(gen, schedule, bursts)
        wall_s = time.perf_counter() - t0
        await server.stop()
        return server, setup_s, gen, wall_s, burst_s

    server, setup_s, gen, wall_s, burst_s = asyncio.run(go())
    open_reqs = [req for _, req in schedule]
    burst_reqs = [req for reqs in bursts for req in reqs]
    everything = open_reqs + burst_reqs
    correct, failed, tally = verdict(server.backend.model, everything)
    latency = open_loop_latencies([r.due for r in open_reqs],
                                  [r.replied for r in open_reqs])
    lat = summarize(latency)
    if lat.get("tail_q", 0.0) < 95.0:
        raise RuntimeError("open loop too short for a 95th percentile")
    burst_batch_s = [end - start for start, end, _, phase in gen.batches
                     if phase == "burst"]
    late = [r.sent - r.due for r in open_reqs]
    by_kind = {}
    for r in open_reqs:
        by_kind.setdefault(r.kind, []).append(r.replied - r.due)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "samples_per_s": len(everything) / wall_s,
        "step_p50_ms": 1e3 * statistics.median(burst_batch_s),
        "heldout_mse": heldout_mse(everything),
        "latency_p50_ms": 1e3 * lat["p50"],
    }
    notes = {"rounds": rounds, "open_loop_requests": len(open_reqs),
             "latency_p95_ms": 1e3 * percentile(latency, 95.0),
             "burst_requests_per_s": statistics.median(
                 BURST / s for s in burst_s),
             "latency_p50_ms_by_kind": {
                 k: round(1e3 * statistics.median(v), 2)
                 for k, v in by_kind.items()},
             "generator_late_p95_ms": 1e3 * percentile(late, 95.0),
             "by_kind": tally, "wall_s": wall_s}
    return {"correct": correct, "attempted": len(everything),
            "failed": failed, "metrics": metrics, "notes": notes}


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
class Instrumented:
    """Spans around the public calls the serving stack makes into the
    model, the solvers and the union planner.  Installed on one model
    instance and the two module-level solve entry points, and removed
    again by :meth:`remove`."""

    def __init__(self, tracer, model):
        self.solver = {"nfev": 0, "steps": 0, "rejects": 0}
        self.union_calls = 0
        self.union_buckets = 0
        self.union_samples = 0
        self.union_nfev = 0
        self._saved = (engine_mod.union_solve, streaming_mod.solve)
        for module, name in ((model.encoder, "core.encode"),
                             (model.enc_proj, "core.encode"),
                             (model.head, "core.readout"),
                             (model.dynamics, "core.rhs")):
            object.__setattr__(module, "forward",
                               tracer.wrap(name, module.forward))
        for attr, name in (("build_contexts", "core.contexts"),
                           ("initial_state", "core.init")):
            object.__setattr__(model, attr,
                               tracer.wrap(name, getattr(model, attr)))
        union_solve, stream_solve = self._saved

        def traced_union_solve(func_for, y0, grids, **kw):
            buckets = plan_union_buckets(
                [np.asarray(g, dtype=np.float64) for g in grids],
                max_bucket=kw["max_bucket"], min_overlap=kw["min_overlap"])
            with tracer.span("odeint.solve"):
                out, stats = union_solve(func_for, y0, grids, **kw)
            self.union_calls += 1
            self.union_buckets += len(buckets)
            self.union_samples += len(grids)
            self.union_nfev += stats.nfev
            self._count(stats)
            return out, stats

        def traced_solve(*args, **kw):
            with tracer.span("odeint.solve"):
                sol = stream_solve(*args, **kw)
            self._count(sol.stats)
            return sol

        engine_mod.union_solve = traced_union_solve
        streaming_mod.solve = traced_solve

    def _count(self, stats) -> None:
        self.solver["nfev"] += stats.nfev
        self.solver["steps"] += stats.steps
        self.solver["rejects"] += stats.rejects

    def remove(self) -> None:
        engine_mod.union_solve, streaming_mod.solve = self._saved


def _run_traced(path, schedule, bursts, span_path) -> dict:
    """Untraced first half of the open loop and its bursts, traced rest;
    per-layer metrics per traced request."""
    split, half = len(schedule) // 2, len(bursts) // 2
    tracer = Tracer()

    async def go():
        load_tracer = Tracer()
        server, _ = await timed_setups(path, load_tracer)
        loads = [1e3 * s.duration for s in load_tracer.spans]
        await open_loop(LoadGen(server), schedule[:split], bursts[:half])
        inst = Instrumented(tracer, server.backend.model)
        try:
            gen = LoadGen(server, tracer)
            await open_loop(gen, schedule[split:], bursts[half:])
        finally:
            inst.remove()
            await server.stop()
        return server, loads, gen, inst

    server, loads, gen, inst = asyncio.run(go())
    base_reqs = [req for _, req in schedule[:split]]
    traced_open = [req for _, req in schedule[split:]]
    burst_reqs = [req for reqs in bursts[half:] for req in reqs]
    traced_all = traced_open + burst_reqs
    if span_path is not None:
        tracer.write_jsonl(span_path)

    def lat(reqs):
        return [r.replied - r.due for r in reqs]

    n = len(traced_all)
    metrics = layer_metrics(tracer.spans, n)
    by_kind = {"miss": [], "hit": []}
    nfev_kind = {"miss": [], "hit": []}
    for r in traced_open:
        kind = r.response["cache"]
        by_kind[kind].append(r.replied - r.due)
        nfev_kind[kind].append(r.response["nfev"])
    open_batches = [b[2] for b in gen.batches if b[3] == "open"]
    burst_batches = [b[2] for b in gen.batches if b[3] == "burst"]
    late = [r.sent - r.due for r in traced_open]
    queue_wait = [w for phase, w in gen.queue_wait if phase == "open"]
    metrics.update({
        "odeint.nfev": inst.solver["nfev"] / n,
        "odeint.steps": inst.solver["steps"] / n,
        "odeint.rejects": inst.solver["rejects"] / n,
        "training.checkpoint_load_ms": statistics.median(loads),
        "serving.queue_wait_p50_ms": 1e3 * percentile(queue_wait, 50),
        "serving.queue_wait_p95_ms": 1e3 * percentile(queue_wait, 95),
        "serving.batch_size": float(np.mean(open_batches)),
        "serving.burst_batch_size": float(np.mean(burst_batches)),
        "serving.engine_ms": 1e3 * statistics.median(
            [end - start for start, end, _, _ in gen.batches]),
        "serving.cache_hit_ratio": len(by_kind["hit"]) / len(traced_open),
        "serving.cold_ms": 1e3 * statistics.median(by_kind["miss"]),
        "serving.warm_ms": 1e3 * statistics.median(by_kind["hit"]),
        "serving.nfev_per_request_cold": float(np.mean(nfev_kind["miss"])),
        "serving.nfev_per_request_warm": float(np.mean(nfev_kind["hit"])),
        "serving.generator_late_ms": 1e3 * percentile(late, 95),
        "protocol.frame_us": 1e6 * float(np.mean([r.frame_s
                                                  for r in traced_all])),
        "parallel.union_buckets": inst.union_buckets / inst.union_calls,
        "parallel.nfev_per_sample": inst.union_nfev / inst.union_samples,
        "trace.overhead_frac": (statistics.median(lat(traced_open))
                                / statistics.median(lat(base_reqs)) - 1.0),
    })
    everything = base_reqs + traced_all
    correct, failed, tally = verdict(server.backend.model, everything)
    correct = correct and metrics["core.rhs_calls"] == metrics["odeint.nfev"]
    return {"correct": correct, "attempted": len(everything),
            "failed": failed, "metrics": metrics,
            "notes": {"traced_requests": n, "untraced_requests":
                      len(base_reqs), "by_kind": tally}}
