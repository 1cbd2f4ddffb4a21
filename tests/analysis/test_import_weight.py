"""networkx stays off the simulator's import path.

The history checker imports it only to enumerate the cycles of a
non-serializable history, and the robustness certifier only inside
``certify()``; importing the package, the bench harness, the analysis
layer or the chaos layer must not load it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_MODULES = ("repro", "repro.bench", "repro.bench.harness", "repro.analysis",
            "repro.chaos")


def test_simulator_imports_do_not_load_networkx():
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = ("import importlib, sys\n"
            f"for name in {_MODULES!r}:\n"
            "    importlib.import_module(name)\n"
            "print('networkx' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
