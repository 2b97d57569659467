"""Analytic side games: the trivariate score function with maximum 1/4, the
fixed-density meta game it scores, and the width-k meta game score
(1-a)^k * a with argmax 1/(k+1)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_MT_GRID_STEP = 0.001
# widest k whose argmax 1/(k+1) is not below the first nonzero grid point
MT_K_MAX = 999


def _check_unit(**kwargs):
    # elementwise, so that scalars and grids share one check
    for name, value in kwargs.items():
        if not np.all((0 <= value) & (value <= 1)):
            raise ParameterError(f"{name}={value} must lie in [0,1]")


def phi(alpha, beta, gamma):
    """(1-a)(a - a^2 b) + a((g - g^2 b) - g(1 - b))."""
    _check_unit(alpha=alpha, beta=beta, gamma=gamma)
    return (1 - alpha) * (alpha - alpha**2 * beta) + alpha * (
        (gamma - gamma**2 * beta) - gamma * (1 - beta)
    )


def phi_simplified(alpha, beta, gamma):
    """Algebraically equal form (1-a)(a - a^2 b) + a b (g - g^2)."""
    _check_unit(alpha=alpha, beta=beta, gamma=gamma)
    return (1 - alpha) * (alpha - alpha**2 * beta) + alpha * beta * (
        gamma - gamma**2
    )


def mbeta_strategy_score(alpha, beta, gamma):
    """Per-n score of the two-threshold strategy in the fixed-density meta
    game: equals phi pointwise (the redundancy is the test surface)."""
    return phi(alpha, beta, gamma)


def mt_score(alpha, k):
    """Per-pair score of the fixed-fraction strategy in the width-k meta
    game: (1-a)^k * a."""
    if k < 0 or int(k) != k:
        raise ParameterError(f"k={k} must be a nonnegative integer")
    _check_unit(alpha=alpha)
    return (1 - alpha) ** k * alpha


def mt_argmax(k):
    """Argmax of mt_score over the [0,1] grid of step 1/1000 (analytically
    1/(k+1)), with its value; k above MT_K_MAX has its argmax off the grid."""
    if k > MT_K_MAX:
        raise ParameterError(f"k={k} exceeds {MT_K_MAX}: 1/(k+1) is below the grid step")
    grid = np.arange(0.0, 1.0 + _MT_GRID_STEP / 2, _MT_GRID_STEP)
    vals = mt_score(grid, k)
    best = int(np.argmax(vals))
    return float(grid[best]), float(vals[best])


@dataclass(frozen=True)
class PhiMaximum:
    max_value: float
    maximizers: tuple  # grid points attaining the max


def maximize_phi():
    """Maximum of phi over the [0,1]^3 grid of step 1/100, with every grid
    point attaining it, in lexicographic order.

    phi = 1/4 - (1 - ab)(a - 1/2)^2 - ab(g - 1/2)^2 exactly, and both weights
    are nonnegative on [0,1]^3, so the maximum is 1/4, attained exactly on
    {a = 1/2, b = 0}, {a = 1/2, g = 1/2} and at (1, 1, 1/2).  The step puts
    1/2 and 1 on the grid, so the grid holds points of all three sets and
    its maximizers are exact ones.

    The grid is evaluated one alpha-plane at a time, a length-1 slice of
    the alpha axis, so that every point's arithmetic is that of the whole
    grid at once while only one plane is held.
    """
    axis = np.arange(0.0, 1.005, 0.01)
    beta, gamma = axis.reshape(1, -1, 1), axis.reshape(1, 1, -1)
    best, hits = -np.inf, []
    for i in range(len(axis)):
        vals = phi_simplified(axis[i: i + 1].reshape(1, 1, 1), beta, gamma)
        plane_best = vals.max()
        if plane_best > best:
            best, hits = plane_best, []
        if plane_best == best:
            plane_hits = np.argwhere(vals == best)  # rows (0, b, g), in order
            plane_hits[:, 0] = i
            hits.append(plane_hits)
    points = axis[np.concatenate(hits)]
    return PhiMaximum(float(best), tuple(map(tuple, points.tolist())))
