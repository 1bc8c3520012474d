"""No stage of the program imports ``numpy.ma``.

Under numpy >= 2, the first call in a process of ``np.unique``, ``np.union1d``
or ``np.setdiff1d`` without ``assume_unique`` imports ``numpy.ma`` (12-19 ms),
a cost the first ``Split`` or working-set growth of a run would pay.  The
stages run in a fresh interpreter, so nothing that an earlier test imported
counts.  numpy 1.x imports ``numpy.ma`` with numpy itself; there the test has
nothing to see and passes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys, tempfile
from pathlib import Path

from graphclean.cli import main
from graphclean.datasets import SbmParams, generate_sbm, save_bundle, split_nodes
from graphclean.denoise import denoise
from test_denoise import TestWorkingSet, sparse_bundle

def loaded():
    return "numpy.ma" in sys.modules

def sbm_pipeline(out):
    assert main(["pipeline", "--sbm-size", "15", "--attack", "random", "--rate", "0.25",
                 "--iters", "30", "--epochs", "10", "--reps", "1", "--seed", "3",
                 "--out", str(out / "sbm.json")]) == 0

def bundle_pipeline(out):
    dataset = generate_sbm(SbmParams(nodes_per_block=15, blocks=2), 4)
    save_bundle(dataset, out / "bundle", split=split_nodes(dataset.n, (0.5, 0.25, 0.25), 4))
    assert (out / "bundle" / "splits.json").exists()
    assert main(["pipeline", "--bundle", str(out / "bundle"), "--attack", "random",
                 "--rate", "0.25", "--iters", "30", "--epochs", "10", "--reps", "1",
                 "--seed", "4", "--out", str(out / "bundle.json")]) == 0

def working_set_denoise(out):
    w_p, X, d_p = sparse_bundle()
    denoise(w_p, X, TestWorkingSet.CONFIG, d_p=d_p)

stages = {"before": loaded()}
with tempfile.TemporaryDirectory() as tmp:
    for stage in (sbm_pipeline, bundle_pipeline, working_set_denoise):
        stage(Path(tmp))
        stages[stage.__name__] = loaded()
print(json.dumps(stages))
"""


def test_no_stage_imports_numpy_ma():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          timeout=300, env=env, check=True)
    stages = json.loads(done.stdout.splitlines()[-1])
    if stages.pop("before"):
        return  # numpy imported numpy.ma itself
    assert stages == {"sbm_pipeline": False, "bundle_pipeline": False,
                      "working_set_denoise": False}
