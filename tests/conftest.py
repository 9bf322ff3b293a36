import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from edgegap.fiber import edge_comparisons, phi_squared
from edgegap.geometry import PolygonDomain
from edgegap.operators import QuadratureSpec
from edgegap.potentials import Perturbation, step_potential


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_CONFIG = str(ROOT / "configs" / "reference.json")


def run_python(args, **env):
    """stdout of a fresh interpreter running args with this checkout's
    edgegap on its path; env entries are set on the child only."""
    child = dict(os.environ, **env)
    child["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], env=child,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def traced_peak(call):
    """(call(), bytes it allocates at its peak beyond what was live before)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def gap_to_phi_ratios(disc, j, ks):
    """(E_j^+ - E_j(k)) / Phi_j(k)^2 at each momentum of ks, the ratio
    verify tep2 reports, from one batch of twin comparisons."""
    return [c.gap_dist / phi_squared(j, c.k, disc.b, disc.w)
            for c in edge_comparisons(disc, j, ks)]


def rect(x0, x1, y0, y1) -> PolygonDomain:
    return PolygonDomain([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


class Bundle:
    """Attribute bag quacking like a loaded scenario."""

    def __init__(self, **kw):
        self.b = 1.0
        self.a_momentum = 0.0
        self.envelope_delta = 0.1
        self.fiber_n = 2001
        self.fiber_half_width = None
        self.quad = QuadratureSpec()
        self.__dict__.update(kw)


@pytest.fixture(scope="session")
def step01():
    return step_potential(0.0, 1.0, 0.0)


@pytest.fixture(scope="session")
def coarse_scenario(step01):
    """Amplitude-25 bump on a half-unit box straddling the edge."""
    return Bundle(w=step01,
                  v=Perturbation(support=rect(-0.25, 0.4, -0.5, 0.5),
                                 amplitude=25.0))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260822)
