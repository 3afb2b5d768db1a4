"""Pieces shared by the three workloads."""

from __future__ import annotations

import gc
import json
import pathlib
import resource
import statistics
import sys
import time

from stats import summarize

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: scratch files a run writes (checkpoints, span logs); git-ignored
WORK_DIR = BENCH_DIR / "work"

#: paper-default DIFFODE sizes (Section IV-A4): d=16, hidden 32, HiPPO and
#: info states of 16, one head; every workload builds its model from these
PAPER_DEFAULTS = dict(latent_dim=16, hidden_dim=32, hippo_dim=16,
                      info_dim=16, num_heads=1)

#: set-ups per run; the reported ``setup_s`` is their median
SETUP_REPEATS = 5


def import_program():
    """Put the checkout's ``src`` first on ``sys.path`` and import it.

    Raises ``ModuleNotFoundError`` where there is no program to measure,
    before anything is printed.
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro  # noqa: F401  (fails here when the program is absent)
    return repro


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build, repeats: int = SETUP_REPEATS):
    """Run ``build()`` ``repeats`` times; return ``(last result, seconds)``.

    Each set-up is built from scratch, so the median time is what one
    user pays to get from imported code to the first timed operation.
    The previous set-up is freed, untimed, before the next one starts.
    """
    times, result = [], None
    for _ in range(repeats):
        result = None
        gc.collect()
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return result, times


def work_file(name: str) -> pathlib.Path:
    WORK_DIR.mkdir(exist_ok=True)
    return WORK_DIR / name


def batch_call_metrics(step_s, latency_s, batch: int) -> tuple[dict, dict]:
    """Timing metrics of a run of batch calls: ``(metrics, notes)``.

    ``step_s`` times the step or call alone and ``latency_s`` adds the
    collate before it.  Throughput is total work over total time, which
    averages over the host's fast and slow spells.  The notes hold the
    tail the sample supports (see ``stats.tail_percentile``) and its
    percentile; it is not a gated metric.
    """
    lat = summarize(latency_s)
    metrics = {
        "samples_per_s": len(latency_s) * batch / sum(latency_s),
        "step_p50_ms": 1e3 * statistics.median(step_s),
        "latency_p50_ms": 1e3 * lat["p50"],
    }
    notes = {"latency_tail_q": lat.get("tail_q"),
             "latency_tail_ms": 1e3 * lat["tail"] if "tail" in lat else None}
    return metrics, notes
