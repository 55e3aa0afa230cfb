"""The import path stays free of scipy: it is loaded only by the first
Clopper-Pearson interval, and then only scipy.special."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))
seen = {}
import stripkit
seen["stripkit"] = scipy_modules()
import stripkit.cli
seen["stripkit.cli"] = scipy_modules()
d = stripkit.build_gaussian(8, 16, seed=0)
stripkit.sinc_estimate(d, 3, 0.5, "monte_carlo", trials=100, seed=1)
seen["monte_carlo"] = scipy_modules()
print(json.dumps(seen))
"""


def test_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    seen = json.loads(out)
    assert seen["stripkit"] == []
    assert seen["stripkit.cli"] == []
    assert "scipy.special" in seen["monte_carlo"]
    assert "scipy.stats" not in seen["monte_carlo"]
