"""Rare-event estimation: plain Monte Carlo vs exponential tilting.

For P[M_100 >= 0.5] with +-1 losses, the true probability is ~2.8e-7.
Plain Monte Carlo at 1e5 samples typically sees zero hits.  The tilted
estimator shifts the sampling law so the event is common and corrects
with likelihood weights.  It draws 1e5 tilted sums of each half of the
portfolio (50 contracts each) and averages the weighted indicator over
all 1e10 pairs of one sum from each half, which takes one
``searchsorted`` over the half's at most 51 distinct sums, weighted by
how many draws took each.  Its relative standard error is about 0.2%,
four times below the average of the same weights over 1e5 whole sums,
so it matches the exact lattice oracle to about three digits.

Run:  python3 demos/importance_sampling.py
"""

from lossdev import (
    PortfolioModel,
    exact_tail,
    sample_plain,
    sample_tilted,
)
from lossdev.model import LossClass

UNIT = LossClass("unit", (-1.0, 1.0), (0.5, 0.5))


def main():
    model = PortfolioModel((UNIT,), weights=(1.0,))
    n, x, samples = 100, 0.5, 100_000

    truth = exact_tail(model, n, x)
    print(f"exact P[M_{n} >= {x}] = {truth:.6e}")

    plain = sample_plain(model, n, x, samples, seed=1)
    print(f"plain MC   ({samples} samples): {plain.estimate:.3e} "
          f"+- {plain.std_error:.1e}")

    tilted = sample_tilted(model, n, x, samples, seed=1)
    print(f"tilted MC  ({samples} samples): {tilted.estimate:.3e} "
          f"+- {tilted.std_error:.1e}   (tilt lambda* = {tilted.lam:.4f})")

    rel = tilted.std_error / tilted.estimate
    print(f"\ntilted relative std error: {rel:.2%}")
    needed = int((truth * (1 - truth)) / (rel * tilted.estimate) ** 2)
    print(f"plain MC would need ~{needed:.1e} samples for the same precision")


if __name__ == "__main__":
    main()
