"""Steadiness mode: two interleaved sets of runs of the same code.

For each workload, runs set A and set B alternately (A1 B1 A2 B2 ...),
each run in a fresh process with its own seed, and prints per end-to-end
metric each set's median and quartiles, the quartile spread as a share
of the median against the metric's bound, and how far set B's median
moved from set A's.  The bounds hold when, in both sets, every spread
but that of ``setup_s`` is within its bound, B's median is no worse than
A's by more than the bound, every run is correct and the share of
failed operations is identical.  Spreads above a third of the bound are
flagged: the margin the benchmark aims for.  The serve workload also
reports how late the open-loop generator ran.
"""

from __future__ import annotations

import statistics

from stats import quartile_spread


def worse_by(spec_metric: dict, a: float, b: float) -> float:
    """How much worse B's median is than A's, as a share of A's."""
    if spec_metric["better"] == "lower":
        return (b - a) / abs(a)
    return (a - b) / abs(a)


def main(spec: dict, n: int, seconds: float, base_seed: int,
         run_subprocess) -> int:
    if n < 2:
        raise SystemExit("--steadiness needs at least 2 runs per set")
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        sets = {"A": [], "B": []}
        for i in range(n):
            for label, offset in (("A", 0), ("B", n)):
                seed = base_seed + offset + i
                sets[label].append(run_subprocess(name, seed, seconds,
                                                  False))
        print(f"== {name}: {n} runs per set, {seconds:g} s each")
        shares = {ln["failed"] / ln["attempted"]
                  for runs in sets.values() for ln, _ in runs}
        all_correct = all(ln["correct"] for runs in sets.values()
                          for ln, _ in runs)
        print(f"   correct in every run: {all_correct}; failed share "
              f"{sorted(shares)} "
              f"({'identical' if len(shares) == 1 else 'DIFFERS'})")
        ok &= len(shares) == 1 and all_correct
        for m in spec["end_to_end"]:
            key, bound = m["name"], m["bound"]
            rows = [quartile_spread([ln["metrics"][key]["value"]
                                     for ln, _ in sets[label]])
                    for label in ("A", "B")]
            shift = worse_by(m, rows[0][0], rows[1][0])
            within = all(r[3] <= bound for r in rows) or key == "setup_s"
            holds = within and shift <= bound
            margin = all(r[3] <= bound / 3 for r in rows)
            ok &= holds
            print(f"   {key:15s} bound {bound:.2f}  "
                  + "  ".join(f"{lab}: {r[0]:.5g} [{r[1]:.5g}, {r[2]:.5g}]"
                              f" spread {r[3]:.3f}"
                              for lab, r in zip("AB", rows))
                  + f"  B worse by {shift:+.3f}  "
                  + ("ok" if holds else "FAIL")
                  + ("" if margin or key == "setup_s"
                     else " (spread > bound/3)"))
        late = [notes["generator_late_p95_ms"]
                for runs in sets.values() for _, notes in runs
                if "generator_late_p95_ms" in notes]
        if late:
            print(f"   open-loop generator lateness, p95 per run: median "
                  f"{statistics.median(late):.2f} ms, max {max(late):.2f} ms")
    print("bounds hold" if ok else "bounds do NOT hold")
    return 0 if ok else 1
