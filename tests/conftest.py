from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BENCHMARKS = FIXTURES.parent / "benchmarks"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def disc_points(seed: int, count: int, n: int, radius: float = 1.0) -> np.ndarray:
    """Uniform polydisc sample, independent of the package's sampler."""
    rng = np.random.default_rng(seed)
    u = rng.random((count, n))
    theta = rng.random((count, n))
    return radius * np.sqrt(u) * np.exp(2j * np.pi * theta)


def rel_err(actual, expected) -> float:
    actual = complex(actual)
    expected = complex(expected)
    return abs(actual - expected) / max(1.0, abs(expected))


def load_script(name: str):
    """The module of `benchmarks/<name>.py`, imported without running its main().

    The scripts' directory goes on the import path first, as it does when a
    script runs, so a script can import its siblings.
    """
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(f"benchmarks_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
