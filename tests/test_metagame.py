"""Analytic side games: the trivariate score and the width-k score."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stopcc import metagame
from stopcc.errors import ParameterError


def test_phi_known_points():
    assert metagame.phi(0.5, 0.7, 0.5) == pytest.approx(0.25)
    assert metagame.phi(0.5, 0.0, 0.9) == pytest.approx(0.25)
    assert metagame.phi(1.0, 1.0, 0.5) == pytest.approx(0.25)
    assert metagame.phi(0.0, 0.3, 0.3) == 0.0


def test_phi_forms_agree():
    rng = random.Random(1)
    for _ in range(200):
        a, b, g = rng.random(), rng.random(), rng.random()
        assert metagame.phi(a, b, g) == pytest.approx(
            metagame.phi_simplified(a, b, g), abs=1e-12)
        assert metagame.mbeta_strategy_score(a, b, g) == metagame.phi(a, b, g)


def test_phi_domain_checks():
    with pytest.raises(ParameterError):
        metagame.phi(1.2, 0.5, 0.5)
    with pytest.raises(ParameterError):
        metagame.phi(0.5, -0.1, 0.5)


def test_mt_score_values_and_checks():
    assert metagame.mt_score(0.5, 1) == pytest.approx(0.25)
    assert metagame.mt_score(0.25, 3) == pytest.approx(0.75 ** 3 * 0.25)
    with pytest.raises(ParameterError):
        metagame.mt_score(0.5, -1)
    with pytest.raises(ParameterError):
        metagame.mt_score(0.5, 1.5)
    with pytest.raises(ParameterError):
        metagame.mt_score(2.0, 1)
    with pytest.raises(ParameterError):
        metagame.mt_argmax(-1)
    with pytest.raises(ParameterError, match="k=1000"):
        metagame.mt_argmax(1000)


def test_mt_argmax_small_widths():
    for k in (1, 2, 3):
        alpha, value = metagame.mt_argmax(k)
        assert alpha == pytest.approx(1 / (k + 1), abs=1e-3)
        assert value <= k ** k / (k + 1) ** (k + 1) + 1e-12


def test_phi_square_completion_is_exact():
    # phi = 1/4 - (1 - ab)(a - 1/2)^2 - ab(g - 1/2)^2 is why the grid scan
    # finds the exact maximum
    rng = random.Random(7)
    half = Fraction(1, 2)
    for _ in range(500):
        a, b, g = (Fraction(rng.randint(0, 1000), 1000) for _ in range(3))
        squares = Fraction(1, 4) - (1 - a * b) * (a - half) ** 2 - a * b * (g - half) ** 2
        assert metagame.phi(a, b, g) == squares
        assert metagame.phi_simplified(a, b, g) == squares


def test_maximize_phi_returns_exact_grid_maximizers():
    result = metagame.maximize_phi()
    assert result.max_value == 0.25
    # 101 + 101 - 1 points on the two a = 1/2 lines, plus the corner
    assert len(result.maximizers) == 202
    assert all(metagame.phi_simplified(*pt) == 0.25 for pt in result.maximizers)


def test_maximize_phi_holds_one_alpha_plane(monkeypatch):
    # the whole 101^3 grid at once peaked at 16 MB; one plane stays below 1 MB
    tracemalloc.start()
    try:
        metagame.maximize_phi()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6, f"peak {peak} bytes"
    # the planes, stacked, are byte-equal to the grid evaluated at once
    phi_simplified, planes = metagame.phi_simplified, []
    monkeypatch.setattr(metagame, "phi_simplified",
                        lambda *args: planes.append(phi_simplified(*args)) or planes[-1])
    metagame.maximize_phi()
    axis = np.arange(0.0, 1.005, 0.01)
    grid = phi_simplified(*np.meshgrid(axis, axis, axis, indexing="ij", sparse=True))
    assert grid.shape == (101, 101, 101)
    assert np.concatenate(planes).tobytes() == grid.tobytes()
