"""tools/same_outputs.py: its comparison, and the tool on this checkout against itself."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def test_a_differing_byte_is_reported_and_the_run_path_is_not(tmp_path):
    sides = tmp_path / "parent", tmp_path / "change"
    for top, digit in zip(sides, "12"):
        (top / "recovered").mkdir(parents=True)
        (top / "recovered" / "edges.csv").write_text(f"0,1,0.{digit}\n")
        (top / "report.json").write_text(f'{{"bundle": "{top / "bundle"}"}}\n')
    assert same_outputs.differences(*sides) == ["recovered/edges.csv"]


def test_a_file_on_one_side_only_is_reported(tmp_path):
    sides = tmp_path / "parent", tmp_path / "change"
    for top in sides:
        top.mkdir()
    (sides[1] / "labels.csv").write_text("0\n")
    assert same_outputs.differences(*sides) == ["labels.csv"]


def test_this_checkout_matches_itself():
    done = subprocess.run([sys.executable, str(_PATH), "--parent", str(ROOT), "--seeds", "1",
                           "--workloads", "denoise-kkt"],
                          capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("seed 1 denoise-kkt: same (")
