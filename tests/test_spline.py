"""The in-repo natural cubic spline against scipy's, bit for bit.

scipy is the reference here only: the runtime never imports it. Bits are
compared with np.array_equal plus the sign of every zero, so -0.0 and 0.0
count as different.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from gtforge import spline

SRC = Path(__file__).resolve().parents[1] / "src"
CHANNEL_SCALES = np.array([1e4, 30.0, 1e-3])


def assert_same_bits(ours: np.ndarray, theirs: np.ndarray) -> None:
    assert np.array_equal(ours, theirs)
    assert np.array_equal(np.signbit(ours), np.signbit(theirs))


def knots(n: int, spacing: str, step: float, ratio: float, period: int, offset: float):
    """n increasing knots starting at offset: a constant step, or steps
    growing by ratio and restarting every period steps."""
    k = np.arange(n - 1)
    steps = np.full(n - 1, step) if spacing == "uniform" else step * ratio ** (k % period)
    return offset + np.concatenate(([0.0], np.cumsum(steps)))


def test_negative_zero_samples_evaluate_as_scipy():
    """PPoly's power sum starts from 0.0, so a -0.0 sample reads back as 0.0
    even where every other term is -0.0 (all three falling at t = 0)."""
    t = np.arange(6) * 0.1
    y = np.array([-0.0, -1.0, -2.0, 2.0, -2.0, 1.0])
    values = spline.evaluate(t, spline.coefficients(t, y[None]), t)[0]
    assert not np.signbit(values[0])
    assert_same_bits(values, CubicSpline(t, y, bc_type="natural")(t))


def test_matches_scipy_cubic_spline():
    pivoting_cases = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(4, 3000),
        spacing=st.sampled_from(["uniform", "exponential"]),
        step=st.floats(1e-3, 1.0),
        ratio=st.floats(1.0, 4.0),
        period=st.integers(2, 12),
        offset=st.floats(0.0, 1e5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=40, spacing="exponential", step=0.01, ratio=3.0, period=8,
             offset=1e5, seed=0)
    def check(n, spacing, step, ratio, period, offset, seed):
        t = knots(n, spacing, step, ratio, period, offset)
        rng = np.random.default_rng(seed)
        ys = rng.normal(size=(len(CHANNEL_SCALES), n)) * CHANNEL_SCALES[:, None]
        x = np.concatenate((t, [t[0], t[-1]], rng.uniform(t[0], t[-1], 200)))
        pivoting_cases.append(any(spline._factor(t)[1]))

        c = spline.coefficients(t, ys)
        values = spline.evaluate(t, c, x)
        slopes = spline.evaluate(t, spline.derivative(c), x)
        for j, y in enumerate(ys):
            reference = CubicSpline(t, y, bc_type="natural")
            assert_same_bits(c[:, j], reference.c)
            assert_same_bits(values[j], reference(x))
            assert_same_bits(slopes[j], reference.derivative()(x))

    check()
    assert any(pivoting_cases), "no generated log took the row-interchange branch"


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, gtforge.cli\n"
        "assert gtforge.cli.main(['--version']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.splitlines()[-1] == "[]"
