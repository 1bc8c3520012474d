"""tools/workload_lines.py on the denoise-kkt workload: what it runs and what it does not."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "tools" / "workload_lines.py"
_SPEC = importlib.util.spec_from_file_location("workload_lines", _PATH)
workload_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workload_lines)

DENOISE = ROOT / "src" / "graphclean" / "denoise.py"


def function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def listed_lines(line: str, order: list) -> set:
    """The statement lines a ``name.py: a b-c`` listing names, with each range
    expanded over the statements ``order`` holds."""
    listed = set()
    for part in line.split(":", 1)[1].split():
        first, _, last = part.partition("-")
        listed.update(s for s in order if int(first) <= s <= int(last or first))
    return listed


def test_statements_own_their_lines():
    source = ('"""Doc."""\n'
              "@decorate\n"
              "def f(a,\n"
              "      b):\n"
              '    """Doc."""\n'
              "    x = (a +\n"
              "         b)\n"
              "    return x\n")
    assert workload_lines.statements(source) == {2: 2, 3: 2, 4: 2, 6: 6, 7: 6, 8: 8}


def test_ranges_join_consecutive_statements():
    assert workload_lines.ranges([3, 5, 9, 12], [1, 3, 5, 7, 9, 12]) == "3-5 9-12"
    assert workload_lines.ranges([], [1, 2]) == ""


def test_denoise_kkt_skips_the_blas_distances_and_runs_the_loop():
    done = subprocess.run([sys.executable, str(_PATH), "--seed", "1",
                           "--workloads", "denoise-kkt"],
                          capture_output=True, text=True, timeout=300, check=True)
    line = next(line for line in done.stdout.splitlines() if line.startswith("denoise.py:"))
    source = DENOISE.read_text(encoding="utf-8")
    order = sorted(set(workload_lines.statements(source).values()))
    missed = listed_lines(line, order)
    tree = ast.parse(source)
    blas = function(tree, "_blas_gram_distances")
    body = {node.lineno for stmt in blas.body[1:] for node in ast.walk(stmt)
            if isinstance(node, ast.stmt)}
    assert body and body <= missed
    loop = next(node for node in ast.walk(function(tree, "denoise"))
                if isinstance(node, ast.For) and getattr(node.target, "id", None) == "t")
    assert loop.lineno not in missed
    assert function(tree, "denoise").lineno not in missed
