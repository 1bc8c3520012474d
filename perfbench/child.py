"""One timed call of ``graphclean.cli.main`` in a fresh process.

    python3 perfbench/child.py SPEC.json

SPEC names the checkout root, the CLI argv, the command kind (``pipeline``
or ``denoise``), an output directory and whether to trace.  Set-up runs from
this process's first statement to the first call of ``run_repetition``
(pipeline) or ``denoise`` (denoise command); wall time runs from there to the
return of the CLI call.  The child writes ``child.json`` (timings, missing
hooks), ``capture.npz`` (what the checks need) and, when traced,
``trace.json`` (the spans) into the output directory.  It checks nothing:
the parent does, apart from the program.
"""

import time

T0 = time.perf_counter()

import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _values(weights):
    return getattr(weights, "values", weights)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import importlib

    modules = {m: importlib.import_module(f"graphclean.{m}")
               for m in ("cli", "pipeline", "denoise", "gcn")}
    source = Path(modules["cli"].__file__).resolve()
    if root.resolve() / "src" not in source.parents:
        raise SystemExit(f"graphclean imported from {source}, not from {root}/src")
    import numpy as np

    marks = []
    captured = {}

    def first_call(fn):
        def marked(*args, **kwargs):
            if not marks:
                marks.append(time.perf_counter())
            return fn(*args, **kwargs)
        return marked

    def capture_denoise(fn):
        def captured_call(*args, **kwargs):
            result = fn(*args, **kwargs)
            bound = _bound(fn, args, kwargs)
            captured.update(X=bound["X"], d_p=bound.get("d_p"),
                            w=_values(result.weights), trace=result.objective_trace)
            return result
        return captured_call

    def capture_attack(fn):
        def captured_call(*args, **kwargs):
            bound = _bound(fn, args, kwargs)
            captured.update(clean=_values(bound["clean"]),
                            poisoned=_values(bound["perturbed"]),
                            labels=bound["dataset"].labels)
            return fn(*args, **kwargs)
        return captured_call

    # these few wrappers run once per call of a stage, so they cost nothing
    # measurable; the per-layer spans come only with spec["trace"]
    pipeline, cli = modules["pipeline"], modules["cli"]
    if spec["kind"] == "pipeline":
        pipeline.run_repetition = first_call(pipeline.run_repetition)
        pipeline.denoise = capture_denoise(pipeline.denoise)
        pipeline.perturbation_report = capture_attack(pipeline.perturbation_report)
    else:
        cli.denoise = first_call(capture_denoise(cli.denoise))

    tracer = spans.Tracer() if spec["trace"] else None
    entry = cli.main
    if tracer is not None:
        tracer.install(modules)
        entry = tracer.wrap(spans.ROOT, entry)
    code = entry(spec["argv"])
    t_end = time.perf_counter()
    if code != 0 or not marks:
        raise SystemExit(f"cli returned {code}; set-up end reached: {bool(marks)}")

    out = Path(spec["out"])
    arrays = {k: np.asarray(v) for k, v in captured.items() if v is not None}
    np.savez(out / "capture.npz", **arrays)
    result = {"setup_s": marks[0] - T0, "wall_s": t_end - marks[0]}
    if tracer is not None:
        result["missing"] = tracer.missing
        (out / "trace.json").write_text(json.dumps({"spans": tracer.spans}),
                                        encoding="utf-8")
    (out / "child.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
