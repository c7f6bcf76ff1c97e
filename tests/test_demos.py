"""Every demo in ``demos/`` runs to completion, as the README tells readers
to run it: ``PYTHONPATH=src python demos/<name>.py``, and
``pick_latent_count.py`` chooses the two latents its docstring
promises."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    argv = [sys.executable, str(ROOT / "demos" / name)]
    if name == "coarse_to_fine.py":
        argv += ["--out", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if name == "pick_latent_count.py":
        chosen = [ln.split()[0] for ln in proc.stdout.splitlines() if "chosen" in ln]
        assert chosen == ["2"], proc.stdout
