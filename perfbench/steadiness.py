"""Repeat the benchmark and report how steady each metric is.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --seconds S --runs 10 \\
        [--workloads ingest,oltp,scan,embedded] [--out FILE]

Runs every workload ``--runs`` times, one seed per round, interleaved
across workloads (round r runs each workload with seed ``first + r``
before the next round starts), so host drift lands on every workload
alike.  For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median, the figure each
metric's bound in ``BENCHMARK.json`` is judged against.  The metrics
printed but not bounded (``p99_ms`` and the like) are summarised too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BOUNDED = [m["name"] for m in json.loads(
    (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]]


class WrongRun(Exception):
    """A run whose answers were wrong or whose requests failed."""


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise WrongRun(proc.stdout.strip().splitlines()[-2])
    # Every printed metric, the unbounded ones (p99_ms, ...) included.
    return {
        line.split()[1]: float(line.split()[2])
        for line in proc.stdout.splitlines() if line.startswith("metric ")
    }


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="ingest,oltp,scan,embedded")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    samples: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    wrong: list[dict] = []
    for r in range(args.runs):
        for w in workloads:
            seed = args.first_seed + r
            try:
                metrics = run_once(w, seed, args.seconds)
            except WrongRun as exc:
                # Kept out of the spreads, and reported: a wrong answer
                # is the program's defect, not noise.
                wrong.append({"workload": w, "seed": seed,
                              "reason": str(exc)})
                print(f"round {r} {w}: WRONG: {exc}", flush=True)
                continue
            for name, value in metrics.items():
                samples[w].setdefault(name, []).append(value)
            print(f"round {r} {w}: " + " ".join(
                f"{k}={metrics[k]:.4g}" for k in BOUNDED), flush=True)
    report = {w: {m: summarize(v) for m, v in ms.items()}
              for w, ms in samples.items()}
    for w, ms in report.items():
        for m, s in ms.items():
            print(f"{w:9s} {m:20s} median {s['median']:.5g} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} "
                  f"spread {s['spread']:.3f}")
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seconds": args.seconds, "runs": args.runs,
             "first_seed": args.first_seed, "workloads": report,
             "wrong_runs": wrong},
            indent=1,
        ) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
