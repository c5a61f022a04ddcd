"""numpy is the one runtime dependency: every scalefix module imports, and
a certify and a solve run, where scipy and the test extra cannot be
imported."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

CHILD = r"""
import importlib
import pkgutil
import sys

BLOCKED = ("scipy", "mpmath", "hypothesis")
for name in BLOCKED:
    sys.modules[name] = None      # import name, or name.sub, now raises
for name in BLOCKED:
    try:
        importlib.import_module(name)
    except ImportError:
        continue
    raise SystemExit(f"{name} is still importable")

sys.path.insert(0, sys.argv[1])
import numpy as np
import scalefix
from scalefix import (OneSectorParams, build_one_sector, certify, iterate)

for module in pkgutil.iter_modules(scalefix.__path__):
    importlib.import_module(f"scalefix.{module.name}")
system = build_one_sector(OneSectorParams(
    A=np.array([1.0, 1.3]), tau=np.array([[1.0, 1.5], [1.5, 1.0]]),
    gamma=np.array([0.5, 0.6]), L=np.array([1.0, 2.0]), theta=4.0,
    sigma=2.0))
report = certify(system, sample_count=2, seed=0)
result = iterate(system, system.state(np.ones(system.dimension)),
                 u=system.scaling)
print(report.mode, report.uniqueness_applicable, result.status)
"""


def test_scalefix_runs_on_numpy_alone():
    done = subprocess.run([sys.executable, "-c", CHILD, SRC],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["exact", "True", "converged"]
