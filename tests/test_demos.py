"""Every demo script runs to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # demo 04 writes its report into a temporary directory under TMPDIR
    env["TMPDIR"] = str(tmp_path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=tmp_path)


def run_demo(name, tmp_path):
    return run_python([str(ROOT / "demos" / name)], tmp_path)


@pytest.mark.parametrize(
    "name",
    [
        "01_autodiff_basics.py",
        "02_context_decoding_strategies.py",
        pytest.param("03_training_comparison.py", marks=pytest.mark.slow),
        "04_feasibility_and_reports.py",
    ],
)
def test_demo_exits_zero(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("raes-demo-*")), "a demo left its temporary directory behind"


def test_package_root_holds_no_public_name(tmp_path):
    # demos import every name from the module that defines it; the root re-exports none
    code = "import raeslab; print(sorted(n for n in vars(raeslab) if not n.startswith('_')), raeslab.__version__)"
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0.1.0\n"
