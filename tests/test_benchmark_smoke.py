"""One benchmark run per workload whose code path the pipeline shares.

perfbench binds ``denoise(..., X, d_p)``, ``perturbation_report(clean,
perturbed, dataset, ...)`` and ``pipeline.run_repetition`` by name and checks
every output with its own numpy code, so a change that breaks either shows up
here.  protocol-n1000 is the workload whose densest ``A_hat`` (its denoised
arm, nnz about n^2 / 5) takes one column per pass of ``A_hat @ H``.  Each run
works on a copy of ``perfbench/`` and ``src/``, so its inputs and outputs stay
out of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, seed", [
    ("denoise-kkt", 1), ("cora-shape", 1), ("protocol-n1000", 1),
    # the seed at which 250 epochs of plain gradient descent left the clean
    # arm at test accuracy 0.8, below perfbench's MIN_CLEAN_ACC
    ("protocol-n1000", 65),
], ids=["denoise-kkt", "cora-shape", "protocol-n1000", "protocol-n1000-seed65"])
def test_one_benchmark_run_is_correct(tmp_path, workload, seed):
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr[-2000:]
    assert result["failed"] == 0, done.stderr[-2000:]
