"""Benchmark for graphclean: three workloads through ``graphclean.cli.main``.

    python3 perfbench/run.py --workload protocol-n1000 --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the command starts one fresh process per run (child.py)
until ``--seconds`` have passed, checks every run's outputs with its own
numpy code (checks.py) and prints the medians of setup_s, wall_s and
peak_rss_mb.  With ``--trace 1`` it makes one untraced and one traced run
and prints the per-layer metrics, including the tracing overhead.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Inputs come from ``--seed`` alone (inputs.py); run outputs, the generated
bundles and trace files go to ``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread: the machine has two cores, and one thread leaves the second
# to the rest of the machine instead of timing BLAS threads that wait for it.
# Set in the environment before numpy is imported, here and in every child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# the whole invocation must end within 180 s; no run starts past this point
# unless it is expected to end before it
BUDGET_S = 150.0
LAUNCH_TIMEOUT_S = 170.0  # launch.py stops its child at 160 s

RATE = 0.25
# cora-shape: cut so one run stays in the tens of seconds (see README)
CORA_ITERS, CORA_EPOCHS = 4, 6
KKT_TOL, KKT_ITER_CAP = 1e-10, 100000
MIN_CLEAN_ACC = 0.9
RECOVERED_THRESHOLD = 1e-8  # the denoise command's default --threshold

WORKLOADS = ("protocol-n1000", "cora-shape", "denoise-kkt")


class Workload:
    """Inputs, argv and check settings of one workload at one seed."""

    def __init__(self, name: str, seed: int, work: Path):
        import inputs

        self.name = name
        self.data = None
        self.values = 0
        common = ["--alpha", "1", "--p", "2", "--seed", str(seed)]
        if name == "protocol-n1000":
            # 2 blocks of 500: about 10.3k clean edges, average degree about 20
            self.kind, self.alpha, self.beta, self.heterophilic = "pipeline", 1.0, 1.0, True
            self.n, self.dim, self.classes = 1000, 8, 2
            self.argv = ["pipeline", "--sbm-blocks", "2", "--sbm-size", "500",
                         "--sbm-p-in", "0.04", "--sbm-p-out", "0.0013", "--sbm-dim", "8",
                         "--attack", "heterophilic", "--rate", str(RATE), "--beta", "1",
                         "--iters", "200", "--epochs", "250", "--reps", "1", *common]
        elif name == "cora-shape":
            self.data = inputs.cora_shape(seed)
            bundle = work / "bundle"
            inputs.write_bundle(ROOT / bundle, self.data["features"], self.data["labels"],
                                self.data["edges"], binary_features=True,
                                split=self.data["split"])
            self.kind, self.alpha, self.beta, self.heterophilic = "pipeline", 1.0, 0.5, False
            self.argv = ["pipeline", "--bundle", str(bundle), "--attack", "random",
                         "--rate", str(RATE), "--beta", "0.5", "--iters", str(CORA_ITERS),
                         "--epochs", str(CORA_EPOCHS), "--reps", "1", *common]
        elif name == "denoise-kkt":
            self.data = inputs.poisoned_sbm(seed)
            bundle = work / "bundle"
            inputs.write_bundle(ROOT / bundle, self.data["features"], self.data["labels"],
                                self.data["edges"])
            self.kind, self.alpha, self.beta = "denoise", 1.0, 1.0
            self.argv = ["denoise", "--bundle", str(bundle), "--beta", "1",
                         "--tol", repr(KKT_TOL), "--iters", str(KKT_ITER_CAP), *common]
        else:
            raise ValueError(f"unknown workload {name!r}")
        if self.data is not None:
            self.n, self.dim = self.data["features"].shape
            self.classes = int(self.data["labels"].max()) + 1
            # values load_bundle parses: features, two per label row, three per edge
            self.values = self.n * self.dim + 2 * self.n + 3 * len(self.data["edges"])

    def output(self, run_dir: Path) -> Path:
        return run_dir / ("report.json" if self.kind == "pipeline" else "recovered")

    def check(self, run_dir: Path) -> tuple:
        """Check one run's outputs; return (facts, bytes that must repeat)."""
        import numpy as np

        import checks

        with np.load(run_dir / "capture.npz") as npz:
            cap = {k: npz[k] for k in npz.files}
        cap.setdefault("d_p", None)
        if self.data is not None:
            checks.require(np.array_equal(cap["X"], self.data["features"]),
                          "features reaching the denoiser differ from the bundle")
            given = checks.pair_vector(self.data["edges"], self.n)
        out = self.output(run_dir)
        if self.kind == "pipeline":
            report_bytes = out.read_bytes()
            report = json.loads(report_bytes)
            checks.require(len(report["repetitions"]) == 1, "expected one repetition")
            rep = report["repetitions"][0]
            if self.data is not None:
                checks.require(np.array_equal(cap["clean"], given)
                               and np.array_equal(cap["labels"], self.data["labels"]),
                               "graph or labels reaching the attack differ from the bundle")
            checks.check_attack(rep["attack"], cap["clean"], cap["poisoned"],
                                cap["labels"], RATE, self.heterophilic)
            cap["w_p"] = cap["poisoned"]
            facts = checks.check_denoise(cap, self.alpha, self.beta)
            checks.require(rep["denoise"]["final_objective"] == float(cap["trace"][-1])
                           and rep["denoise"]["iterations"] == cap["trace"].size - 1,
                           "report's denoise summary differs from the returned trace")
            checks.check_aggregates(report)
            if self.name == "protocol-n1000":
                checks.require(rep["accuracy"]["clean"] >= MIN_CLEAN_ACC,
                               f"clean-arm accuracy {rep['accuracy']['clean']} < {MIN_CLEAN_ACC}")
            facts.update(accuracy=rep["accuracy"], edges_added=rep["attack"]["edges_added"])
            blobs = report_bytes
        else:
            cap["w_p"] = given
            facts = checks.check_denoise(cap, self.alpha, self.beta)
            result_bytes = (out / "denoise_result.json").read_bytes()
            result = json.loads(result_bytes)
            checks.require(result["converged"], "denoiser did not meet --tol")
            checks.require(result["objective_trace"] == cap["trace"].tolist(),
                           "denoise_result.json trace differs from the returned trace")
            checks.require(facts["kkt_residual"] <= checks.KKT_RTOL,
                           f"KKT residual {facts['kkt_residual']:.3e} > {checks.KKT_RTOL}")
            edges_bytes = (out / "edges.csv").read_bytes()
            rows = np.loadtxt(out / "edges.csv", delimiter=",", skiprows=1, ndmin=2)
            written = checks.pair_vector(rows[:, :2].astype(np.int64), self.n, rows[:, 2])
            kept = np.where(cap["w"] > RECOVERED_THRESHOLD, cap["w"], 0.0)
            checks.require(np.array_equal(written, kept),
                           "recovered edges.csv differs from the returned weights")
            blobs = result_bytes + edges_bytes
        facts.update(iterations=int(cap["trace"].size - 1),
                     final_objective=float(cap["trace"][-1]))
        return facts, blobs


def run_child(wl: Workload, run_dir: Path, traced: bool) -> dict:
    """One fresh process (through launch.py); its timings, peak RSS and CPU time."""
    run_dir.mkdir(parents=True)
    spec = {"root": str(ROOT), "kind": wl.kind, "trace": traced, "out": str(run_dir),
            "argv": wl.argv + ["--out", str(wl.output(run_dir))]}
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    with open(run_dir / "child.log", "w", encoding="utf-8") as log:
        # its own process group, so a stuck run is stopped with its child
        proc = subprocess.Popen([sys.executable, str(HERE / "launch.py"), str(spec_path)],
                                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=LAUNCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stop_group(proc)
            raise ChildFailed(f"{run_dir.name} ran past {LAUNCH_TIMEOUT_S} s") from None
        except BaseException:
            stop_group(proc)
            raise
    if code != 0:
        tail = (run_dir / "child.log").read_text(encoding="utf-8")[-2000:]
        raise ChildFailed(f"{run_dir.name} exited with {code}:\n{tail}")
    result = json.loads((run_dir / "child.json").read_text(encoding="utf-8"))
    usage = json.loads((run_dir / "rusage.json").read_text(encoding="utf-8"))
    result.update(peak_rss_mb=usage["maxrss_kb"] / 1024.0, user_s=usage["user_s"],
                  sys_s=usage["sys_s"])
    return result


class ChildFailed(RuntimeError):
    pass


def stop_group(proc: subprocess.Popen) -> None:
    """Kill the run's process group and wait until every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    # the orphaned child is reaped by init; allow it a moment to go
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def layer_metrics(wl: Workload, spans_list: list, facts: dict) -> dict:
    s = spans.summarize(spans_list)
    total, calls = s["total_s"], s["calls"]

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    iterations = facts.get("iterations", 0) if c("denoise.denoise") else 0
    epochs = c("gcn.loss_and_gradients")
    load_s = t("datasets.load_bundle")
    draws = (c("datasets.generate_sbm") * (wl.n * (wl.n - 1) // 2 + wl.n * wl.dim)
             + c("gcn.xavier_params") * 16 * (wl.dim + wl.classes)
             + c("datasets.split_nodes") * (wl.n - 1))
    acc = facts.get("accuracy", {})
    m = {
        "denoise.denoise_s": (t("denoise.denoise"), "s"),
        "denoise.iter_s": (t("denoise.denoise") / iterations if iterations else 0.0, "s"),
        "denoise.iterations": (iterations, "count"),
        "denoise.objective_s": (t("denoise.objective"), "s"),
        "denoise.objective_calls": (c("denoise.objective"), "count"),
        "denoise.final_objective": (facts.get("final_objective", 0.0), "1"),
        "denoise.kkt_residual": (facts.get("kkt_residual", 0.0), "ratio"),
        "denoise.pairwise_p_distances_s": (t("denoise.pairwise_p_distances"), "s"),
        "operators.laplacian_from_weights_s": (t("operators.laplacian_from_weights"), "s"),
        "operators.laplacian_from_weights_calls": (c("operators.laplacian_from_weights"), "count"),
        "operators.adjoint_of_s": (t("operators.adjoint_of"), "s"),
        "operators.adjoint_of_calls": (c("operators.adjoint_of"), "count"),
        "operators.adjacency_from_weights_s": (t("operators.adjacency_from_weights"), "s"),
        "datasets.load_bundle_s": (load_s, "s"),
        "datasets.values_per_s": (c("datasets.load_bundle") * wl.values
                                  / load_s if load_s else 0.0, "values/s"),
        "datasets.generate_sbm_s": (t("datasets.generate_sbm"), "s"),
        "datasets.save_bundle_s": (t("datasets.save_bundle"), "s"),
        "rng.draws": (draws, "count"),
        "gcn.train_s": (t("gcn.train"), "s"),
        "gcn.epochs": (epochs, "count"),
        "gcn.epoch_s": (t("gcn.train") / epochs if epochs else 0.0, "s"),
        "gcn.loss_and_gradients_s": (t("gcn.loss_and_gradients"), "s"),
        "gcn.forward_s": (t("gcn.forward"), "s"),
        "gcn.normalize_adjacency_s": (t("gcn.normalize_adjacency"), "s"),
        "gcn.xavier_params_s": (t("gcn.xavier_params"), "s"),
        "gcn.acc_clean": (acc.get("clean", 0.0), "ratio"),
        "gcn.acc_poisoned": (acc.get("poisoned", 0.0), "ratio"),
        "gcn.acc_denoised": (acc.get("denoised", 0.0), "ratio"),
        "attacks.attack_s": (t("attacks.random_add") + t("attacks.heterophilic_add"), "s"),
        "attacks.perturbation_report_s": (t("attacks.perturbation_report"), "s"),
        "attacks.edges_added": (facts.get("edges_added", 0), "count"),
        "datasets.rss_growth_mb": (s["rss_growth_mb"].get("datasets", 0.0), "MB"),
        "denoise.rss_growth_mb": (s["rss_growth_mb"].get("denoise", 0.0), "MB"),
        "gcn.rss_growth_mb": (s["rss_growth_mb"].get("gcn", 0.0), "MB"),
        "pipeline.run_repetition_s": (t("pipeline.run_repetition"), "s"),
        "pipeline.self_s": (sum((v for k, v in s["self_s"].items()
                                 if k.startswith("pipeline.")), 0.0), "s"),
        "cli.self_s": (s["self_s"].get(spans.ROOT, 0.0), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = next((ln.split(":", 1)[1].strip() for ln in
                Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    return {"threads": THREAD_ENV, "cpu": cpu, "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "graphclean" / "cli.py").is_file():
        print(f"no graphclean sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.environ.update(THREAD_ENV)  # before numpy is first imported
    start = time.perf_counter()
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(env)}",
          file=sys.stderr)
    (work / "environment.json").write_text(json.dumps(env, indent=2) + "\n")
    wl = Workload(args.workload, args.seed, work.relative_to(ROOT))

    import checks

    runs, blobs, durations, failed, correct = [], [], [], 0, True

    def attempt(traced: bool):
        nonlocal failed, correct
        run_dir = work / f"run{len(durations)}"
        began = time.perf_counter()
        try:
            result = run_child(wl, run_dir, traced)
        except ChildFailed as exc:
            print(exc, file=sys.stderr)
            failed += 1
            result = None
        else:
            try:
                result["facts"], blob = wl.check(run_dir)
                blobs.append(blob)
            except checks.CheckFailed as exc:
                print(f"{run_dir.name}: check failed: {exc}", file=sys.stderr)
                correct, result["facts"] = False, {}
            runs.append(result)
            (run_dir / "capture.npz").unlink(missing_ok=True)
        durations.append(time.perf_counter() - began)
        return result

    if args.trace:
        untraced, traced = attempt(False), attempt(True)
        if untraced is None or traced is None:
            return 1
        spans_list = json.loads((work / "run1" / "trace.json")
                                .read_text(encoding="utf-8"))["spans"]
        metrics = layer_metrics(wl, spans_list, traced["facts"])
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced["wall_s"],
                                       "unit": "s"}
        metrics["trace.missing_hooks"] = {"value": len(traced["missing"]), "unit": "count"}
        if traced["missing"]:
            print(f"missing hooks: {traced['missing']}", file=sys.stderr)
    else:
        # whole runs only: start another while it should end within --seconds
        loop_start = time.perf_counter()
        while True:
            attempt(False)
            now = time.perf_counter()
            if (now - loop_start + statistics.median(durations) > args.seconds
                    or now - start + 1.2 * max(durations) > BUDGET_S):
                break
        if not runs:
            print("no run completed", file=sys.stderr)
            return 1
        metrics = {name: {"value": statistics.median(r[name] for r in runs), "unit": unit}
                   for name, unit in (("setup_s", "s"), ("wall_s", "s"),
                                      ("peak_rss_mb", "MB"))}
    try:
        checks.check_identical(blobs)
    except checks.CheckFailed as exc:
        print(exc, file=sys.stderr)
        correct = False
    for i, r in enumerate(runs):
        print(f"run{i}: setup_s={r['setup_s']:.4f} wall_s={r['wall_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} user_s={r['user_s']:.2f} "
              f"sys_s={r['sys_s']:.2f}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(runs) + failed,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
