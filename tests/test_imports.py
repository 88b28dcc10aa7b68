"""The runtime needs numpy and pyyaml only: importing every mpnlsim
module, the CLI included, loads no scipy module.  Runs under pytest or
alone (``python tests/test_imports.py``), so it also checks an
environment without the test extra."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = """
import importlib, pkgutil, sys
import mpnlsim
names = sorted(m.name for m in pkgutil.iter_modules(mpnlsim.__path__))
for name in names:
    importlib.import_module("mpnlsim." + name)
print(" ".join(names))
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_scipy_module_loaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout.split("\n")
    assert "cli" in out[0].split() and "channel" in out[0].split()
    assert out[1] == "", f"scipy modules loaded: {out[1]}"


if __name__ == "__main__":
    test_no_scipy_module_loaded()
    print("no scipy module loaded")
