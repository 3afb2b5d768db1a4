"""End-to-end DIFFODE benchmark at the paper-default config.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload train|infer|serve --seed N \\
        --seconds S --trace 0|1
    python3 e2ebench/run.py --workload all    # each in its own process
    python3 e2ebench/run.py --steadiness 5    # two interleaved sets

One run prints its metrics by name and unit, then, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are the per-layer metrics, derived from spans the
run records around each layer's public calls (written as JSONL under
``e2ebench/work/``).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from common import BENCH_DIR, ROOT, import_program, load_spec, work_file

WORKLOADS = ("train", "infer", "serve")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time per run (default: BENCHMARK.json "
                        "run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N",
                   help="run two interleaved sets of N runs per workload "
                        "and compare them against the bounds")
    return p.parse_args(argv)


def assemble(spec: dict, trace: bool, result: dict) -> dict:
    """The result line: every metric BENCHMARK.json lists for the mode.

    A per-layer metric of a layer that does not run in this workload
    reads 0; a missing end-to-end metric is an error.
    """
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in listed:
        name = m["name"]
        if name in measured:
            value = float(measured[name])
        elif trace:
            value = 0.0
        else:
            raise KeyError(f"workload did not measure {name!r}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    unknown = set(measured) - {m["name"] for m in listed}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: "
                       f"{sorted(unknown)}")
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()
    if workload == "train":
        import workload_train as module
    elif workload == "infer":
        import workload_infer as module
    else:
        import workload_serve as module
    span_path = (work_file(f"spans-{workload}-{seed}.jsonl")
                 if trace else None)
    return module.run(seed, seconds, trace, span_path)


def run_subprocess(workload: str, seed: int, seconds: float,
                   trace: bool) -> tuple[dict, dict]:
    """One workload run in a fresh interpreter.

    Returns its result line and the notes it printed.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    notes = next((json.loads(ln)["notes"] for ln in lines
                  if ln.startswith('{"notes"')), {})
    return json.loads(lines[-1]), notes


def print_table(workload: str, line: dict) -> None:
    print(f"[{workload}] correct={line['correct']} "
          f"attempted={line['attempted']} failed={line['failed']}")
    for name, m in line["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    seconds = (args.seconds if args.seconds is not None
               else float(spec["run_seconds"]))
    if args.steadiness:
        import steadiness
        return steadiness.main(spec, args.steadiness, seconds, args.seed,
                               run_subprocess)
    if args.workload == "all":
        lines = {}
        for workload in WORKLOADS:
            lines[workload], _ = run_subprocess(workload, args.seed,
                                                seconds, bool(args.trace))
            print_table(workload, lines[workload])
        print(json.dumps(lines))
        return 0 if all(v["correct"] for v in lines.values()) else 1
    try:
        result = run_one(args.workload, args.seed, seconds, bool(args.trace))
    finally:
        for path in BENCH_DIR.glob(f"work/*-{os.getpid()}.npz"):
            path.unlink()
    line = assemble(spec, bool(args.trace), result)
    if result.get("notes"):
        print(json.dumps({"notes": result["notes"]}))
    print_table(args.workload, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
