"""Fenchel-Legendre transforms of mixture CGFs, closed-form rate
functions for the symmetric two-point classes, and the certified
tail-decay lower bound for assigned (density-oscillating) models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cgf import check_lambda, mixture_cgf, shaped
from .model import PortfolioModel, Refused

SOLVE_TOL = 1e-10
MAX_ITER = 200


@dataclass(frozen=True)
class RatePoint:
    """Legendre-transform solution at threshold x, each field in the
    shape of x (Python scalars for a scalar x).  status is 'interior'
    (lambda_star solves Lambda'(lam) = x), 'boundary' (x at the essential
    supremum of the mean; the supremum is attained only as lambda -> inf
    and the rate is the closed-form limit value), or 'infinite' (x
    outside the reachable range; rate = inf)."""

    x: float
    lambda_star: float
    rate: float
    status: str


def _solve_mean_equation(classes, weights, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve d/dlam of the mixture CGF = x for each x of a 1-d array:
    (lambda, lambda x - Lambda(lambda)).  Newton with a bisection
    safeguard inside a bracket found by doubling lambda; each CGF
    evaluation covers only the points still open."""
    tol = SOLVE_TOL * np.maximum(1.0, np.abs(x))
    at0 = mixture_cgf(classes, weights, np.zeros(1))
    lam, rate = np.zeros_like(x), 0.0 * x - at0.value
    idx = np.flatnonzero(np.abs(at0.d1 - x) > tol)
    x, tol, step = x[idx], tol[idx], np.where(x[idx] > at0.d1, 1.0, -1.0)
    # bracket by doubling
    lo, hi, short = np.zeros_like(x), step.copy(), np.arange(x.size)
    while short.size:
        p = mixture_cgf(classes, weights, hi[short])
        short = short[(p.d1 - x[short]) * step[short] < 0]
        lo[short], hi[short] = hi[short], 2 * hi[short]
        if np.any(np.abs(hi[short]) > 1e9):
            raise Refused(f"could not bracket lambda for x={x[short[0]]}")
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    # start from the Newton step at lambda = 0 when the bracket holds it
    first = (x - at0.d1) / at0.d2
    at = np.where((lo < first) & (first < hi), first, 0.5 * (lo + hi))
    for _ in range(MAX_ITER):
        if not idx.size:
            break
        p = mixture_cgf(classes, weights, at)
        f, d2 = p.d1 - x, p.d2
        done = np.abs(f) <= tol
        if done.any():
            lam[idx[done]], rate[idx[done]] = at[done], at[done] * x[done] - p.value[done]
            idx, x, tol, at, lo, hi, f, d2 = (v[~done] for v in (idx, x, tol, at, lo, hi, f, d2))
        hi, lo = np.where(f > 0, at, hi), np.where(f > 0, lo, at)
        newton = at - f / np.where(d2 > 0, d2, np.inf)
        at = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
    if idx.size:
        raise Refused(f"no convergence after {MAX_ITER} iterations at x={x[0]}")
    return lam, rate


def transform_from_weights(classes, weights, x) -> RatePoint:
    """Legendre transform of the mixture CGF with the given class weights,
    at x or elementwise over an array of x."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    x_max = float(sum(w * c.max_support for c, w in zip(classes, weights)))
    x_min = float(sum(w * c.min_support for c, w in zip(classes, weights)))
    edge_tol = 1e-12 * max(1.0, abs(x_max), abs(x_min))
    infinite = ~((x_min - edge_tol <= xs) & (xs <= x_max + edge_tol))  # NaN too
    upper = np.abs(xs - x_max) <= edge_tol
    interior = ~(infinite | upper | (np.abs(xs - x_min) <= edge_tol))
    # at an edge the sup is attained only as lambda -> +-inf; limit value in closed form
    edge_rates = [-sum(w * math.log(cls.probs[end]) for cls, w in zip(classes, weights) if w > 0.0)
                  for end in (0, -1)]
    lam = np.where(upper | (xs > x_max), np.inf, -np.inf)
    rate = np.where(infinite, np.inf, np.where(upper, edge_rates[1], edge_rates[0]))
    status = np.where(infinite, "infinite", np.where(interior, "interior", "boundary"))
    if interior.any():
        lam[interior], solved = _solve_mean_equation(classes, weights, xs[interior])
        rate[interior] = np.maximum(solved, 0.0)
    return RatePoint(*shaped(np.shape(x), xs, lam, rate, status))


def legendre_transform(model: PortfolioModel, x: float) -> RatePoint:
    """Rate function Lambda*(x) = sup_lam (lam x - Lambda(lam)) of a
    weighted model's limit CGF."""
    if not model.is_weighted:
        raise Refused("legendre_transform needs a weighted model; "
                      "use bound for assigned ones")
    return transform_from_weights(model.classes, model.densities(), x)


def _two_point_rate(x: float, a: float) -> float:
    """Rate function of the symmetric law on {-a, +a} with mass 1/2 each:
    log 2 + ((x+a)/2a) log((x+a)/2a) + ((a-x)/2a) log((a-x)/2a) on [-a, a],
    with 0 log 0 := 0; infinity otherwise."""
    if abs(x) > a:
        return math.inf
    out = math.log(2.0)
    for t in ((x + a) / (2 * a), (a - x) / (2 * a)):
        if t > 0.0:
            out += t * math.log(t)
    return out


def rate_I1(x: float) -> float:
    """Closed-form rate function of the +-1 symmetric class."""
    return _two_point_rate(x, 1.0)


def rate_I2(x: float) -> float:
    """Closed-form rate function of the +-2 symmetric class."""
    return _two_point_rate(x, 2.0)


def rate_upper_bound(model: PortfolioModel, x, lam_grid: Sequence[float]):
    """Certified lower bound b on the tail decay rate, at x or elementwise
    over an array of x: P[M_n >= x] <= exp(-n b) at every n >= 1.

    Chernoff gives P[M_n >= x] <= exp(-n (lam x - Lambda_n(lam))) for
    every n and lam >= 0, and the finite-n CGF Lambda_n is linear in the
    density vector d(n) = counts(n) / n.  So sup_n Lambda_n is at most
    the max of the mixture CGF over ``model.density_extremes()``, whose
    convex hull holds every d(n) (the Gartner-Ellis bound with the
    running sup of Lambda_n).  b is the max over the lambda grid of
    lam x minus that max: every grid lambda is a valid Chernoff
    parameter, so the grid only loosens the bound.  Strictly positive
    for x > 0 whenever the boundedness/variance-floor assumptions hold
    and the grid reaches small enough lambda.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    if lam_grid.size == 0 or not np.all(lam_grid >= 0.0):
        # a negative lambda bounds the lower tail, not the upper one
        raise ValueError("the lambda grid must be nonempty and >= 0")
    check_lambda(model.classes, lam_grid, x)
    bar = np.max([mixture_cgf(model.classes, d, lam_grid).value
                  for d in model.density_extremes()], axis=0)
    return shaped(np.shape(x), (np.multiply.outer(x, lam_grid) - bar).max(axis=-1))[0]
