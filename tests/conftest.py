"""Fixtures shared by the test modules."""

import platform

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

# numpy's x86-64 dispatch levels, highest first.
_X86_LEVELS = ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3", "X86_V2")


@pytest.fixture(scope="session")
def dispatch_target():
    """The target a recorded bit pattern holds on: numpy's major.minor
    version, the machine, and on x86-64 the highest level numpy
    dispatches (None elsewhere).  On a CPU with AVX-512,
    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" lowers the
    level to X86_V3."""
    major, minor = np.__version__.split(".")[:2]
    level = next((name for name in _X86_LEVELS if __cpu_features__.get(name)),
                 None)
    return f"{major}.{minor}", platform.machine(), level
