"""Compare the benchmark workloads' output files of two checkouts byte for byte.

    python3 tools/same_outputs.py --parent ../parent
    python3 tools/same_outputs.py --parent ../parent --seeds 1 --workloads denoise-kkt

For this checkout and for ``--parent``, one subprocess puts that checkout's
``src/`` and ``perfbench/`` on ``sys.path`` and runs each perfbench workload
at each seed through ``graphclean.cli.main``, with the inputs and argv that
``perfbench/run.py``'s ``Workload`` builds, as ``tools/workload_lines.py``
does.  Then every file written for each (seed, workload), its generated
inputs and its outputs, is compared byte for byte, after that side's
directory is replaced in the bytes by the same token: report.json echoes the
path of the bundle it read.  The command prints one line per
(seed, workload) and exits 1 if any output differs.  One seed takes about
2 s per checkout on a 2-vCPU Xeon; outputs go to a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
_TOKEN = b"<run directory>"


def run_tree(tree: str, out: str, seeds: str, names: str) -> None:
    """Run the workloads ``names`` at the ``seeds`` (both comma-separated)
    with the code of checkout ``tree``; workload W at seed S writes its
    inputs and outputs under ``out/S/W``."""
    tree = Path(tree)
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import run

    os.environ.update(run.THREAD_ENV)  # before numpy is first imported
    from graphclean import cli

    if not Path(cli.__file__).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"graphclean imported from {cli.__file__}, not from {tree / 'src'}")
    for seed in seeds.split(","):
        for name in names.split(","):
            work = Path(out) / seed / name
            wl = run.Workload(name, int(seed), work)
            run_dir = work / "run"
            run_dir.mkdir(parents=True)
            # the command's own messages go to stderr, so stdout stays quiet
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(wl.argv + ["--out", str(wl.output(run_dir))])
            if code:
                raise SystemExit(f"{name} at seed {seed} exited with {code} in {tree}")


def differences(parent: Path, change: Path) -> list:
    """The paths, relative to each directory, of the files that differ
    between ``parent`` and ``change`` or exist in one of them only; each
    directory's own path is replaced by the same token before comparing."""
    tops = dict(zip(SIDES, (parent, change)))
    files = {side: {p.relative_to(top).as_posix(): p for p in top.rglob("*") if p.is_file()}
             for side, top in tops.items()}
    out = []
    for name in sorted(files["parent"].keys() | files["change"].keys()):
        found = [files[side][name].read_bytes().replace(str(top).encode(), _TOKEN)
                 for side, top in tops.items() if name in files[side]]
        if len(found) < 2 or found[0] != found[1]:
            out.append(name)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="the checkout to compare this one with")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    parser.add_argument("--workloads", default="protocol-n1000,cora-shape,denoise-kkt",
                        help="comma-separated perfbench workload names")
    args = parser.parse_args(argv)
    child = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
             "import same_outputs; same_outputs.run_tree(*sys.argv[1:])")
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for side, tree in zip(SIDES, (args.parent.resolve(), ROOT)):
            subprocess.run([sys.executable, "-c", child, str(tree), str(Path(tmp) / side),
                            args.seeds, args.workloads], check=True)
        for seed in args.seeds.split(","):
            for name in args.workloads.split(","):
                parent, change = (Path(tmp) / side / seed / name for side in SIDES)
                differ = differences(parent, change)
                count = sum(1 for p in change.rglob("*") if p.is_file())
                print(f"seed {seed} {name}: " + (f"differs: {' '.join(differ)}" if differ
                                                   else f"same ({count} files)"))
                same = same and not differ
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
