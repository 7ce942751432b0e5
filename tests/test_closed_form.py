import itertools
import re

import numpy as np
import pytest

from stochviab import closed_form
from stochviab.closed_form import (
    MATRIX_POWER_GUARD,
    KernelShape,
    example_matrix,
    kernel_closed_form,
    matrix_value,
)
from stochviab.model import ModelError


def test_row_sums():
    for p in (0.01, 0.1, 0.3):
        mat = example_matrix(p)
        sums = mat.sum(axis=1)
        assert sums[0] == pytest.approx(1.0, abs=1e-15)
        assert sums[2] == pytest.approx(1.0, abs=1e-15)
        assert sums[1] == pytest.approx(1.0 - p, abs=1e-15)


def test_terminal_stage_is_one():
    for x in (-1, 0, 1):
        assert matrix_value(0.2, 7, 7, x) == 1.0


def test_one_step_values():
    assert matrix_value(0.01, 40, 39, -1) == 1.0
    assert matrix_value(0.01, 40, 39, 0) == pytest.approx(0.99, abs=1e-15)
    assert matrix_value(0.01, 40, 39, 1) == 1.0


def test_outside_grid_is_zero():
    assert matrix_value(0.1, 5, 0, 2) == 0.0
    assert matrix_value(0.1, 5, 0, -3) == 0.0


def test_symmetry_between_boundaries():
    for p in (0.01, 0.1, 0.3):
        for k in range(0, 30, 3):
            assert matrix_value(p, 30, 30 - k, -1) == matrix_value(p, 30, 30 - k, 1)


def test_monotone_in_horizon():
    for p in (0.01, 0.1, 0.3):
        for x in (-1, 0, 1):
            vals = [matrix_value(p, 40, 40 - k, x) for k in range(41)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_exhaustive_enumeration_agreement():
    """The decisive check: enumerate every feedback and every scenario of the
    actual system (no solver code) and compare with the matrix form."""

    def exhaustive(p, steps, x0):
        probs = {-1: p, 0: 1 - 2 * p, 1: p}
        grid = [-1, 0, 1]
        best = 0.0
        for fb in itertools.product([-1, 1], repeat=steps * 3):
            total = 0.0
            for scen in itertools.product([-1, 0, 1], repeat=steps):
                weight = 1.0
                for w in scen:
                    weight *= probs[w]
                x = x0
                alive = x in grid
                for k, w in enumerate(scen):
                    if not alive:
                        break
                    x = x + fb[k * 3 + grid.index(x)] + w
                    alive = x in grid
                if alive:
                    total += weight
            best = max(best, total)
        return best

    for p in (0.1, 0.25):
        for steps in (1, 2, 3):
            for x0 in (-1, 0, 1):
                want = exhaustive(p, steps, x0)
                got = matrix_value(p, steps, 0, x0)
                assert got == pytest.approx(want, abs=1e-12), (p, steps, x0)


def test_kernel_branches():
    assert kernel_closed_form(0.01, 40, 39, 0.99) is KernelShape.FULL
    assert kernel_closed_form(0.01, 40, 39, 0.995) is KernelShape.BOUNDARY_PAIR
    assert kernel_closed_form(0.01, 40, 40, 1.0) is KernelShape.FULL
    tiny = matrix_value(0.3, 40, 0, -1)
    assert kernel_closed_form(0.3, 40, 0, min(1.0, tiny * 1.5)) is KernelShape.EMPTY


def test_kernel_shape_members():
    assert KernelShape.FULL.members == (-1, 0, 1)
    assert KernelShape.BOUNDARY_PAIR.members == (-1, 1)
    assert KernelShape.EMPTY.members == ()


def test_parameter_guards():
    with pytest.raises(ModelError):
        example_matrix(0.5)
    with pytest.raises(ModelError):
        matrix_value(0.1, 5, 6, 0)
    with pytest.raises(ModelError):
        kernel_closed_form(0.1, 5, 0, 0.0)
    with pytest.raises(ModelError):
        kernel_closed_form(0.1, 5, 0, 1.5)
    with pytest.raises(ModelError, match="^stage t=6 exceeds horizon T=5$"):
        kernel_closed_form(0.1, 5, 6, 0.5)


@pytest.mark.parametrize("call,message", [
    # p first, before an x off the grid would answer 0
    (lambda: matrix_value(0.7, 40, 0, 5), "p must lie in (0, 1/2), got 0.7"),
    (lambda: matrix_value(0.7, 5, 6, 0), "p must lie in (0, 1/2), got 0.7"),
    (lambda: kernel_closed_form(0.7, 40, 0, 1.5), "p must lie in (0, 1/2), got 0.7"),
    # stages and coordinates are integers, not floats or bools
    (lambda: matrix_value(0.01, 40, 2.5, 0),
     "stage t and horizon T must be integers, got t=2.5, T=40"),
    (lambda: matrix_value(0.01, True, 0, 0),
     "stage t and horizon T must be integers, got t=0, T=True"),
    (lambda: matrix_value(0.01, 40.0, 0, 0),
     "stage t and horizon T must be integers, got t=0, T=40.0"),
    (lambda: kernel_closed_form(0.01, 40, 0.0, 0.5),
     "stage t and horizon T must be integers, got t=0.0, T=40"),
    (lambda: kernel_closed_form(0.01, 40, False, 0.5),
     "stage t and horizon T must be integers, got t=False, T=40"),
    (lambda: matrix_value(0.01, 40, 0, True), "x must be an integer coordinate, got True"),
    (lambda: matrix_value(0.01, 40, 0, 1.0), "x must be an integer coordinate, got 1.0"),
    (lambda: matrix_value(0.01, 40, 0, 7.5), "x must be an integer coordinate, got 7.5"),
    (lambda: matrix_value(0.01, 5, 6, 0), "stage t=6 exceeds horizon T=5"),
    # a power of 10**12 stages would be multiplied out for weeks
    (lambda: matrix_value(0.01, 10**12, 0, 0),
     "T - t = 1000000000000 stages exceed the closed form's guard of 1000000"),
    (lambda: kernel_closed_form(0.01, 10**12, 1, 0.5),
     "T - t = 999999999999 stages exceed the closed form's guard of 1000000"),
    (lambda: matrix_value(0.01, MATRIX_POWER_GUARD + 7, 6, 0),
     "T - t = 1000001 stages exceed the closed form's guard of 1000000"),
])
def test_arguments_checked_in_order(call, message):
    with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
        call()


def test_the_guard_admits_its_own_number_of_stages(monkeypatch):
    monkeypatch.setattr(closed_form, "MATRIX_POWER_GUARD", 5)
    assert matrix_value(0.1, 5, 0, -1) == matrix_value(0.1, 6, 1, -1)
    with pytest.raises(ModelError, match="^T - t = 6 stages exceed the closed form's guard of 5$"):
        matrix_value(0.1, 6, 0, -1)


def test_numpy_integers_are_integers():
    assert matrix_value(0.01, np.int64(40), np.int64(39), np.int64(0)) == matrix_value(
        0.01, 40, 39, 0)
    assert matrix_value(0.01, 40, 0, np.int64(5)) == 0.0
