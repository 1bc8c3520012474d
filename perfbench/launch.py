"""Start one benchmark run and report its resource usage.

    python3 perfbench/launch.py SPEC.json

Runs ``child.py SPEC.json`` and writes the child's own rusage to
``<out>/rusage.json``.  It sits between run.py and the child because Linux
counts the RSS a process had when it forked into the peak RSS (ru_maxrss) of
the child it execs: started straight from run.py, which holds numpy and the
generated inputs, a small run would report run.py's memory.  This launcher
imports nothing heavy, so its own RSS stays below any child's.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

TIMEOUT_S = 160.0


def main(spec_path: str) -> int:
    out = Path(json.loads(Path(spec_path).read_text(encoding="utf-8"))["out"])
    child = Path(__file__).resolve().parent / "child.py"
    proc = subprocess.Popen([sys.executable, str(child), spec_path])
    deadline = time.monotonic() + TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    (out / "rusage.json").write_text(json.dumps({
        "maxrss_kb": usage.ru_maxrss, "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime}), encoding="utf-8")
    return proc.returncode


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
