"""Mixture cumulant generating functions with analytic first and second
derivatives, and the exponentially tilted class laws, all from one array
kernel over a lambda array and a padded (classes x support) matrix.
MGF sums are evaluated with the max exponent shifted out, so tilts up to
|lambda| ~ 700 / c0 are safe; derivatives and tilted probabilities come
from the same shifted weights, never from differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import LossClass, PortfolioModel, Refused


@dataclass(frozen=True)
class CgfPoint:
    """A CGF and its first two derivatives at ``lam``: arrays of the shape
    of ``lam``, or Python floats for a scalar ``lam``."""

    lam: float
    value: float
    d1: float
    d2: float


def shaped(shape, *arrays) -> list:
    """The arrays reshaped to ``shape``; Python scalars when it is ()."""
    return [a.reshape(shape) if shape else a.item() for a in arrays]


@lru_cache(maxsize=64)
def _class_matrix(classes: tuple[LossClass, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Support values and log-probabilities as (classes x support)
    matrices, rows padded with value 0 and log-probability -inf."""
    width = max(len(cls.support) for cls in classes)
    pad = [(0.0,) * (width - len(cls.support)) for cls in classes]
    support = np.array([cls.support + p for cls, p in zip(classes, pad)])
    probs = np.array([cls.probs + p for cls, p in zip(classes, pad)])
    logp = np.log(probs, out=np.full(probs.shape, -np.inf), where=probs > 0.0)
    support.flags.writeable = logp.flags.writeable = False
    return support, logp


def _shifted_weights(classes, lam: np.ndarray):
    """Support matrix, max exponent ``top`` and weights exp(lam v + log p - top)."""
    support, logp = _class_matrix(tuple(classes))
    expo = lam[..., None, None] * support + logp
    top = expo.max(axis=-1)
    return support, top, np.exp(expo - top[..., None])


def check_lambda(classes, lam) -> None:
    """Refuse lambdas whose product with a class span (the kernel's lam * (v - v'))
    or 2 (a grid from -lam to lam) overflows; run where a user's lambda grid enters."""
    reach = max(2.0, *(c.max_support - c.min_support for c in classes))
    if not np.isfinite(float(np.abs(lam).max()) * reach):
        raise Refused(f"lambda times {reach!r} (a class span) overflows")


def mixture_cgf(classes, weights, lam) -> CgfPoint:
    """Weighted mixture CGF sum_i w_i log phi_i(lam) and its derivatives
    at every lambda of ``lam``: per class the shifted log-sum of
    exp(lam v_j + log p_j), its tilted mean and its tilted variance.
    A stack of weight rows (k x classes) gives one mixture per row from
    the same per-class sums: value, d1 and d2 then gain a last axis of
    length k."""
    lam = np.asarray(lam, dtype=float)
    support, top, w = _shifted_weights(classes, lam)
    s = w.sum(axis=-1)
    mean = (w * support).sum(axis=-1) / s
    var = (w * (support - mean[..., None]) ** 2).sum(axis=-1) / s
    per_class = (top + np.log(s), mean, var)
    if np.ndim(weights) == 2:
        return CgfPoint(lam, *(c @ np.transpose(weights) for c in per_class))
    mixed = ((c * weights).sum(axis=-1) for c in per_class)
    return CgfPoint(*shaped(lam.shape, lam, *mixed))


def envelope_cgf(classes, rows: np.ndarray, lam) -> CgfPoint:
    """Upper envelope max_k of the mixture CGFs of the weight rows ``rows``
    (k x classes) from one kernel call: its value, and the derivatives of
    the row that attains it, one-sided at a kink where two rows cross.
    One row is its mixture CGF."""
    if len(rows) == 1:
        return mixture_cgf(classes, rows[0], lam)
    p = mixture_cgf(classes, rows, lam)
    # at lam = 0 every row is 0 with slope 0 (the classes are centered), up
    # to rounding: on both sides the row of largest curvature binds
    binds = np.where(p.lam[..., None] == 0.0, p.d2, p.value)
    top = binds.argmax(axis=-1)[..., None]
    mixed = (np.take_along_axis(c, top, axis=-1)[..., 0] for c in (p.value, p.d1, p.d2))
    return CgfPoint(*shaped(p.lam.shape, p.lam, *mixed))


def tilted_laws(classes, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Per class log phi_i(lam), and the tilted probabilities
    p_j exp(lam v_j - log phi_i(lam)) in the rows of ``_class_matrix``."""
    _, top, w = _shifted_weights(classes, np.asarray(lam, dtype=float))
    s = w.sum(axis=-1)
    return top + np.log(s), w / s[:, None]


def limit_cgf(model: PortfolioModel, lam) -> CgfPoint:
    """Limit CGF of a weighted model: sum_i d_i log phi_i(lam)."""
    if not model.is_weighted:
        raise Refused(
            "limit_cgf needs a weighted model; use empirical_cgf for assigned ones")
    return mixture_cgf(model.classes, model.densities(), lam)


def empirical_cgf(model: PortfolioModel, n: int, lam) -> CgfPoint:
    """Finite-n average CGF (1/n) sum_{k<=n} log phi_{class(k)}(lam),
    i.e. the mixture CGF with weights nu_i(n)/n.

    Works for assigned models (rule counts) and for weighted models
    realized by deterministic apportionment.
    """
    counts = model.counts(n)
    return mixture_cgf(model.classes, counts / n, lam)
