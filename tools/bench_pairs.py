"""Write a BENCH_<label>.json: the benchmark run in alternating pairs on two checkouts.

    python3 tools/bench_pairs.py --parent ../parent --change . --label my_change \\
        --workloads cora-shape,protocol-n1000,denoise-kkt --seeds 301-310 --seconds 36 \\
        --change-text "what the change does"

Pair k runs ``perfbench/run.py --workload W --seed S_k --seconds T`` for every
workload in turn, the parent checkout first when k is even and the change
first when k is odd; both sides of a pair take the same seed.  Each checkout
runs its own ``perfbench/`` and ``src/``.  For every end-to-end metric that
the change's ``BENCHMARK.json`` names, the file gives each side's median and
quartiles, the pairs in which the change read lower, the median change in
percent, whether that shows a gain, and every run.  The file is rewritten
after each pair, so a run cut short leaves the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def quartiles(values) -> dict:
    """Median and quartiles by numpy.percentile, linear interpolation."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


def summarize_metric(parent, change, better: str = "lower") -> dict:
    """One metric over paired runs: ``parent[k]`` and ``change[k]`` are pair k.

    A gain is shown when the change is better in at least nine tenths of the
    pairs (ties count for neither side) and its median is better than the
    parent's by more than the parent's q3 - q1.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, non-zero run counts, got {len(parent)} and {len(change)}")
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    gap = sign * (p["median"] - c["median"])
    return {
        "parent": p,
        "change": c,
        "change_lower_in_pairs": sum(b < a for a, b in zip(parent, change)),
        "median_change_pct": round(100.0 * (c["median"] - p["median"]) / p["median"], 1),
        "gain_shown": bool(wins >= 0.9 * len(parent) and gap > p["q3"] - p["q1"]),
    }


def summarize_workload(runs: dict, metrics: list) -> dict:
    """``runs`` maps each side to its runs in pair order; ``metrics`` holds
    the ``end_to_end`` entries of BENCHMARK.json."""
    values = {side: {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs[side]]
                     for m in metrics} for side in SIDES}
    return {
        "all_correct_no_failures": all(r["correct"] and r["failed"] == 0
                                       for side in SIDES for r in runs[side]),
        "summary": {m["name"]: summarize_metric(values["parent"][m["name"]],
                                                values["change"][m["name"]], m["better"])
                    for m in metrics},
        **{side: runs[side] for side in SIDES},
    }


def parse_seeds(text: str) -> list:
    """``301-310`` or ``301,305,307``."""
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"seed": seed, **result}


def commit_of(checkout: Path) -> str:
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", required=True, help="comma-separated")
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--change-text", default="")
    parser.add_argument("--out", type=Path, help="default: BENCH_<label>.json")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workloads.split(",")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = args.out or Path(f"BENCH_{args.label}.json")
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    environment = None
    for k, seed in enumerate(args.seeds):
        for w in workloads:
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                runs[w][side].append(run_benchmark(checkouts[side], w, seed, args.seconds))
                print(f"pair {k} {w} {side}: {runs[w][side][-1]['metrics']}", file=sys.stderr)
            if environment is None:
                environment = json.loads((checkouts["change"] / ".perfbench_work" / w
                                          / "environment.json").read_text(encoding="utf-8"))
        doc = {
            "label": args.label,
            "change": args.change_text,
            "parent_commit": commit_of(checkouts["parent"]),
            "change_commit": commit_of(checkouts["change"]),
            "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                       f"--seconds {args.seconds:g}",
            "environment": environment,
            "pairs": k + 1,
            "seeds": args.seeds[:k + 1],
            "order": f"pair k (seed {args.seeds[0]} onwards) runs every workload in turn, "
                     "the parent first when k is even and the change first when k is odd; "
                     "both sides of a pair use the same seed",
            "quartiles": f"numpy.percentile, linear interpolation, over the {k + 1} runs "
                         "of a side",
            "gain_shown": "the change is better in at least 9/10 of the pairs and its "
                          "median is better by more than the parent's q3 - q1",
            "workloads": {w: summarize_workload(runs[w], spec["end_to_end"])
                          for w in workloads},
        }
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
