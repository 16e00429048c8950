"""Moderate-deviation thresholds, and the leading-order prediction of
-log P for thresholds scaling like n^(alpha - 1/2), the regime between
the CLT and large deviations.

Only the leading Gaussian exponent is computed.  The first term of the
power-series correction of the underlying expansion is reported only by
its scale n^(3 alpha - 1/2), which is not a bound on what the leading
term leaves out: it omits that term's third-cumulant factor, and the
Gaussian prefactor log(y sqrt(2 pi)) of the tail, which grows like log n
and, for alpha < 1/6, outgrows the scale.
"""

from __future__ import annotations

import math

from .model import AssumptionBounds, PortfolioModel, Record, Refused, check_size


class CltRegimeError(Refused):
    """The query's y = c n^alpha does not exceed 1; such thresholds sit
    in the central-limit regime, outside the validity of the estimate."""


class MdQuery(Record):
    """Threshold scale c, exponent alpha in (0, 1/2), and portfolio size n."""

    __slots__ = ("c", "alpha", "n")

    def __init__(self, c: float, alpha: float, n: int):
        if not c > 0:
            raise ValueError("c must be positive")
        if not 0.0 < alpha < 0.5:
            raise ValueError("alpha must lie in (0, 1/2)")
        check_size(n)
        super().__init__(c, alpha, n)

    @property
    def y(self) -> float:
        return self.c * self.n**self.alpha


def variance_sum(model: PortfolioModel, n: int) -> float:
    """B_n = sum of the contract variances among indices 1..n."""
    counts = model.counts(n)
    return float(sum(nu * cls.variance for cls, nu in zip(model.classes, counts)))


class MdThresholds(Record):
    """Moderate-deviation thresholds: the exact B_n scaling and the
    cruder c0/c1 sandwich (lower <= exact <= upper for valid models)."""

    __slots__ = ("exact", "upper", "lower")


def md_threshold(q: MdQuery, model: PortfolioModel,
                 bounds: AssumptionBounds) -> MdThresholds:
    bn = variance_sum(model, q.n)
    exact = q.c * q.n ** (q.alpha - 1.0) * math.sqrt(bn)
    upper = q.c * bounds.c0 * q.n ** (q.alpha - 0.5)
    lower = q.c * math.sqrt(bounds.c1) * q.n ** (q.alpha - 0.5)
    return MdThresholds(exact, upper, lower)


class MdPrediction(Record):
    """Leading-order -log P prediction, leading = (1/2) c^2 n^(2 alpha),
    with the scale of the first neglected series term kept separate,
    correction_scale = n^(3 alpha - 1/2).  correction_scale is a scale,
    not a bound: it leaves out that term's third-cumulant factor and the
    Gaussian prefactor log(y sqrt(2 pi))."""

    __slots__ = ("leading", "correction_scale")


def md_log_prob_prediction(q: MdQuery) -> MdPrediction:
    """Predicted -log P[M_n > threshold] ~ (1/2) c^2 n^(2 alpha).

    Requires y = c n^alpha > 1; smaller y belongs to the CLT regime.  A
    prediction past the largest double is refused.
    """
    if q.y <= 1.0:
        raise CltRegimeError(
            f"y = c n^alpha = {q.y:g} <= 1: the estimate needs 1 < y = o(sqrt n); "
            "use a CLT approximation instead")
    try:
        leading = 0.5 * q.c**2 * q.n ** (2 * q.alpha)
    except OverflowError:  # c^2 alone overflows
        leading = math.inf
    if not math.isfinite(leading):
        raise Refused(f"the prediction (1/2) c^2 n^(2 alpha) overflows at c = {q.c!r}, "
                      f"n = {q.n}")
    correction = q.n ** (3 * q.alpha - 0.5)
    return MdPrediction(leading, correction)
