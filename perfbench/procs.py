"""Where the checkout is, and how the benchmark starts its child processes.

Every measurement runs in a fresh interpreter that imports `wqhopf` from the
checkout's `src/`, so no installed copy is ever measured.  A child reports by
printing one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


class ChildError(RuntimeError):
    pass


class ChildTimeout(ChildError):
    pass


def sources_present() -> bool:
    return (SRC / "wqhopf" / "__init__.py").is_file()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(script: str, args, timeout: float) -> dict:
    """Run `script` (a file beside this one) to completion; return its report.

    On timeout the child is killed and reaped before `ChildTimeout` is raised.
    """
    cmd = [sys.executable, str(HERE / script), *map(str, args)]
    try:
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise ChildTimeout(f"{' '.join(cmd[1:])}: no result after "
                           f"{timeout:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildError(f"{' '.join(cmd[1:])}: exit {done.returncode}")
    return json.loads(lines[-1])
