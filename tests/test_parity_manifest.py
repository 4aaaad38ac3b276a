"""The parity set's stopping steps, pinned by ``tests/parity_manifest.json``.

``tests/parity.py manifest`` solves the parity set in a fresh process with
BLAS on one thread, as the benchmark runs it, and this test holds its
output to the committed file.  A change that moves a termination on
purpose rewrites the file with that command and names the move.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import dadda

HERE = Path(__file__).resolve().parent


def test_parity_set_keeps_its_stopping_steps(tmp_path):
    # termination, iterations and switched_at exactly; ererr within a factor of
    # 2, as the fluid solves' accuracy at the step where they stop
    out = tmp_path / "manifest.json"
    src = str(Path(dadda.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(HERE / "parity.py"), "manifest", str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    want = json.loads((HERE / "parity_manifest.json").read_text())
    got = json.loads(out.read_text())
    assert list(got) == list(want)

    def moved(old, new):
        if old["ererr"] is None or new["ererr"] is None:
            return old != new
        exact = ("termination", "iterations", "switched_at")
        return any(old[key] != new[key] for key in exact) or not (
            0.5 <= new["ererr"] / old["ererr"] <= 2.0
        )

    moves = {label: (want[label], got[label]) for label in want if moved(want[label], got[label])}
    assert not moves, moves
