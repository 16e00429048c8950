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
MAX_LAMBDA = 1e9  # the solve refuses a lambda whose |lambda| times the range's scale passes this


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


def _solve_mean_equation(classes, weights, x: np.ndarray, x_min: float,
                         x_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve Lambda'(lam) = x, Lambda the mixture CGF, for each x of a
    1-d array inside (x_min, x_max), the range of Lambda':
    (lambda, lambda x - Lambda(lambda)).

    Newton runs on the logit of the tilted mean,
    z(lam) = log(Lambda' - x_min) - log(x_max - Lambda'), which is close
    to linear in lam at both ends (exactly linear for a symmetric
    two-point class), so it starts from the one scalar kernel call at
    lam = 0.  Each evaluation closes one side of a bracket [lo, hi]; a
    Newton step that leaves it, or is not finite because the mean
    rounded onto an end, is replaced by bisection once both ends are
    closed and by doubling lam while one is open.  The scale
    s = max(-x_min, x_max) sets the units: an open end sits at
    +-MAX_LAMBDA / s, and a point stops when |Lambda' - x| <= SOLVE_TOL s,
    since Lambda' is not resolved more finely than the rounding of
    values of size s.  Each kernel call covers only the points still
    open."""
    scale = max(-x_min, x_max)  # > 0: every class is centered
    tol, limit = SOLVE_TOL * scale, MAX_LAMBDA / scale
    ends = np.empty((3, x.size))
    ends[0], ends[1], ends[2] = x, x_min, x_max
    odds = (x - x_min) / (x_max - x)  # exp(z) at the solution
    lam, rate, idx = np.zeros_like(x), np.zeros_like(x), np.arange(x.size)
    lo, hi, at = np.full_like(x, -limit), np.full_like(x, limit), np.zeros_like(x)
    p = mixture_cgf(classes, weights, np.zeros(1))
    for _ in range(MAX_ITER):
        gaps = p.d1 - ends  # Lambda' - x, Lambda' - x_min, Lambda' - x_max
        dist = np.abs(gaps)
        above = gaps[0] > 0.0
        lo, hi = np.where(above, lo, at), np.where(above, at, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # not finite where the mean rounded onto an end; the bracket rejects it
            step = at + np.log(odds * dist[2] / dist[1]) / (p.d2 / dist[1:]).sum(axis=0)
        done = dist[0] <= tol
        finished = np.count_nonzero(done)
        if finished:
            lam[idx[done]], rate[idx[done]] = at[done], (at * ends[0] - p.value)[done]
            if finished == idx.size:
                return lam, rate
            idx, odds, lo, hi, step = (v[~done] for v in (idx, odds, lo, hi, step))
            ends = ends[:, ~done]
        inside = (lo < step) & (step < hi)
        if np.count_nonzero(inside) < inside.size:
            # the first evaluation, at lam = 0, closes one end; double from lam s = 1
            grow = np.where(hi == limit, np.maximum(2.0 * lo, 1.0 / scale),
                            np.minimum(2.0 * hi, -1.0 / scale))
            fallback = np.where((lo == -limit) | (hi == limit), grow, 0.5 * (lo + hi))
            step = np.where(inside, step, fallback)
            if np.abs(step).max() >= limit:
                raise Refused("could not bracket lambda for "
                              f"x={ends[0][np.argmax(np.abs(step))]}")
        at = step
        p = mixture_cgf(classes, weights, at)
    raise Refused(f"no convergence after {MAX_ITER} iterations at x={ends[0][0]}")


def transform_from_weights(classes, weights, x) -> RatePoint:
    """Legendre transform of the mixture CGF with the given class weights,
    at x or elementwise over an array of x."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    x_max = float(sum(w * c.max_support for c, w in zip(classes, weights)))
    x_min = float(sum(w * c.min_support for c, w in zip(classes, weights)))
    edge_tol = 1e-12 * max(-x_min, x_max)  # on the solver's scale: every class is centered
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
        lam[interior], solved = _solve_mean_equation(classes, weights, xs[interior], x_min, x_max)
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
    # + 0.0 turns the -0.0 that a negative x makes at lambda = 0 into 0.0
    return shaped(np.shape(x), (np.multiply.outer(x, lam_grid) - bar).max(axis=-1) + 0.0)[0]
