"""Monte Carlo tail estimation with exponential tilting.

Sampling is reproducible: a counter-based Philox stream keyed by the
seed drives every draw, and replicates are generated in one vectorized
pass, so repeated runs are bit-identical.  Because the estimators depend
on the portfolio sum only, each class contributes through the
multinomial counts of its support points; a run of nu iid contracts is
sampled as one multinomial draw instead of nu categorical draws.

The tilted probabilities p_j exp(lambda* v_j - log phi_c(lambda*)) and
the normalizer sum_c nu_c log phi_c(lambda*) come from one evaluation of
the CGF kernel (``cgf.tilted_laws``); a support point whose tilted mass
underflows stays in place with probability 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cgf import tilted_laws
from .legendre import transform_from_weights
from .model import PortfolioModel, Refused, check_budget, reaches

DEFAULT_SEED = 20250411


class TiltingRangeError(Refused):
    """Threshold not in the interior of the reachable range; tilting is
    undefined there.  Use plain sampling or the exact oracle."""


@dataclass(frozen=True)
class TailEstimate:
    estimate: float
    std_error: float
    n_samples: int
    method: str  # 'plain' or 'tilted'
    seed: int
    lam: float = 0.0

    def __post_init__(self):
        # no range check: an unbiased importance-sampling estimate of a
        # probability near 1 or 0 may fall just outside [0, 1]
        if not math.isfinite(self.estimate) or self.std_error < 0.0:
            raise ValueError("estimate must be finite and std error nonnegative")


def _sample_sums(model: PortfolioModel, n: int, n_samples: int,
                 rng: np.random.Generator,
                 class_probs: list[np.ndarray]) -> np.ndarray:
    """Portfolio sums S_n for each replicate, via per-class multinomials.

    The budget covers the widest class's draws, the sums and their
    update, and the estimators' hit mask and weights."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    counts = model.counts(n)
    check_budget(n_samples * (4 + max(map(len, class_probs))), "sample arrays")
    sums = np.zeros(n_samples)
    for cls, nu, probs in zip(model.classes, counts, class_probs):
        if nu == 0:
            continue
        draws = rng.multinomial(int(nu), probs, size=n_samples)
        sums += draws @ np.asarray(cls.support)
    return sums


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def sample_plain(model: PortfolioModel, n: int, x: float, n_samples: int,
                 seed: int = DEFAULT_SEED) -> TailEstimate:
    """Indicator-mean estimate of P[M_n >= x]."""
    sums = _sample_sums(model, n, n_samples, _rng(seed),
                        [np.asarray(c.probs) for c in model.classes])
    hits = reaches(sums, n * x).astype(float)
    est = float(hits.mean())
    se = float(hits.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return TailEstimate(est, se, n_samples, "plain", seed)


def sample_tilted(model: PortfolioModel, n: int, x: float, n_samples: int,
                  seed: int = DEFAULT_SEED) -> TailEstimate:
    """Importance-sampling estimate of P[M_n >= x] under the optimal
    exponential tilt.

    The tilt is the Legendre maximizer of the finite-n empirical CGF
    (not the limit CGF), so it is optimal for the actual n even when the
    class densities oscillate.  The estimator averages
    1{S_n >= n x} exp(-lam* S_n + sum_k log phi_k(lam*)) and is unbiased.
    Below the mean (lam* < 0) the event is the likely one, so it averages
    the same weight over the complement {S_n < n x} and returns 1 minus
    that, with the same standard error.
    """
    counts = model.counts(n)
    weights = counts / n
    rp = transform_from_weights(model.classes, weights, x)
    if rp.status != "interior":
        raise TiltingRangeError(
            f"x={x} has status {rp.status!r}; use sample_plain or the exact oracle")
    lam = rp.lambda_star
    log_phi, tilted = tilted_laws(model.classes, lam)
    log_norm = float((log_phi * counts).sum())
    tilted_probs = [row[:len(cls.support)] for cls, row in zip(model.classes, tilted)]
    sums = _sample_sums(model, n, n_samples, _rng(seed), tilted_probs)
    below = lam < 0.0
    counted = reaches(sums, n * x) != below  # the complement's samples when below
    weights_ls = np.where(counted, np.exp(-lam * sums + log_norm), 0.0)
    est = float(weights_ls.mean())
    se = float(weights_ls.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return TailEstimate(1.0 - est if below else est, se, n_samples, "tilted", seed, lam=lam)
