"""Print the statements of src/graphclean that no benchmark workload runs.

    python3 tools/workload_lines.py --seed 1
    python3 tools/workload_lines.py --seed 1 --workloads denoise-kkt

Runs each perfbench workload once, in this process, through
``graphclean.cli.main`` under ``sys.settrace``, with the inputs and argv
that ``perfbench/run.py``'s ``Workload`` builds for the seed.  Tracing
starts before graphclean is imported, so import-time statements count.
For each module it prints one line, ``name.py: L L-L ...``, listing the
first lines of the statements that none of the runs executed; consecutive
such statements are joined into a range.  A statement is executed when a
line event falls on its own lines: a simple statement's lines, or a
compound statement's header up to its body.  Docstrings, which run no
code, are not statements here.  Outputs go to a temporary directory.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphclean"


def statements(source: str) -> dict:
    """Map each line that belongs to a statement's own lines to the
    statement's first line; a compound statement owns its header, from its
    first decorator to the line before its body."""
    owner = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        for line in range(first, max(first, last) + 1):
            owner.setdefault(line, first)
    return owner


def ranges(missed: list, order: list) -> str:
    """``missed`` statement lines as ``a`` or ``a-b``, joining statements
    that follow each other in ``order``."""
    at = {line: k for k, line in enumerate(order)}
    parts, run = [], []
    for line in missed:
        if run and at[line] != at[run[-1]] + 1:
            parts.append(run)
            run = []
        run.append(line)
    if run:
        parts.append(run)
    return " ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in parts)


def trace_runs(names: list, seed: int, work: Path) -> set:
    """(file, line) of every line event in src/graphclean during the runs."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run

    os.environ.update(run.THREAD_ENV)  # before numpy is first imported
    prefix = str(PACKAGE) + os.sep
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    workloads = [run.Workload(name, seed, work / name) for name in names]
    if "graphclean" in sys.modules:
        raise SystemExit("graphclean was imported before tracing started")
    sys.settrace(calls)
    try:
        from graphclean import cli

        for wl in workloads:
            out = work / wl.name / "run"
            out.mkdir(parents=True)
            # the command's own messages go to stderr, so stdout holds the listing
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(wl.argv + ["--out", str(wl.output(out))])
            if code:
                raise SystemExit(f"{wl.name} exited with {code}")
    finally:
        sys.settrace(None)
    module = sys.modules["graphclean"].__file__
    if Path(module).resolve().parent != PACKAGE:
        raise SystemExit(f"graphclean imported from {module}, not from {PACKAGE}")
    return seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workloads", default="protocol-n1000,cora-shape,denoise-kkt",
                        help="comma-separated perfbench workload names")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        seen = trace_runs(args.workloads.split(","), args.seed, Path(tmp))
    for path in sorted(PACKAGE.glob("*.py")):
        owner = statements(path.read_text(encoding="utf-8"))
        run_here = {owner[line] for name, line in seen
                    if name == str(path) and line in owner}
        order = sorted(set(owner.values()))
        missed = [line for line in order if line not in run_here]
        print(f"{path.name}: {ranges(missed, order)}".rstrip())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
