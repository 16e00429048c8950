from pathlib import Path

import numpy as np
import pytest

from lossdev import AssumptionBounds, LossClass, PortfolioModel, RoundRobin

UNIT = LossClass("unit", (-1.0, 1.0), (0.5, 0.5))
DOUBLE = LossClass("double", (-2.0, 2.0), (0.5, 0.5))


# raw claims {0, 1000} at q = 1/(100 pi), centered, beside the unit class
CLAIM_RAW = Path(__file__).resolve().parents[1] / "demos" / "claim_raw.json"
# a claim of -1e8 at 1e-12 beside {-0.25, 0.125}: a range whose bottom is
# some 1e9 times as far from 0 as its top
WIDE_CLAIM = Path(__file__).resolve().parents[1] / "demos" / "wide_claim.json"

# a model whose exact tail at n = 71, x = DEPLETED_X has a tilted window
# sum that the round-off of its spectrum makes negative; the true log P is -106.728
DEPLETED_WINDOW = {
    "bounds": {"c0": 3.0000000000044507, "c1": 1e-40},
    "classes": [{"name": "a",
                 "support": [-1.9999999999955493, 4.4506620611173275e-12, 3.0000000000044507],
                 "probs": [2.2253171305571605e-12, 0.9999999999977747, 4.016154213368066e-25]},
                {"name": "b", "support": [-1.0, 0.0], "probs": [5.71019605430263e-26, 1.0]}],
    "regime": {"assigned": {"round_robin": {"weights": [1, 2]}}}}
DEPLETED_X = 0.04911520404628589


def life_class(q: float) -> LossClass:
    """A life contract that costs 1 with claim probability q, centered:
    {-q, 1 - q}.  For most q its points share no lattice step, but its
    gap, 1, does."""
    return LossClass(f"life q={q:.6g}", (-q, 1.0 - q), (1.0 - q, q))


@pytest.fixture
def unit_class():
    return UNIT


@pytest.fixture
def double_class():
    return DOUBLE


@pytest.fixture
def pure_unit():
    return PortfolioModel((UNIT,), weights=(1.0,))


@pytest.fixture
def pure_double():
    return PortfolioModel((DOUBLE,), weights=(1.0,))


@pytest.fixture
def eq_mix():
    return PortfolioModel((UNIT, DOUBLE), weights=(0.5, 0.5))


@pytest.fixture
def rr_mix():
    return PortfolioModel((UNIT, DOUBLE), rule=RoundRobin((1, 1)))


def random_lattice_model(rng: np.random.Generator, max_classes: int = 3):
    """Random valid model whose classes share a lattice: each class is a
    symmetric three-point law {-a g, 0, a g} (exactly centered and
    on-grid), with bounds derived from the classes themselves."""
    g = rng.choice([0.25, 0.5, 1.0])
    p = rng.integers(1, max_classes + 1)
    classes = []
    for i in range(p):
        a = int(rng.integers(1, 5))
        mass = rng.uniform(0.15, 0.5)
        classes.append(LossClass(f"c{i}", (-a * g, 0.0, a * g),
                                 (mass, 1 - 2 * mass, mass)))
    if rng.random() < 0.5:
        w = rng.dirichlet(np.ones(p))
        model = PortfolioModel(tuple(classes), weights=tuple(w.tolist()))
    else:
        model = PortfolioModel(tuple(classes),
                               rule=RoundRobin(tuple(int(v) for v in rng.integers(1, 4, p))))
    c0 = max(abs(c.min_support) for c in classes)
    c1 = min(c.variance for c in classes)
    return model, AssumptionBounds(c0, c1)


def random_general_model(rng: np.random.Generator, max_classes: int = 4):
    """Random valid model with arbitrary supports, each shifted to mean 0;
    no common lattice guaranteed."""
    p = int(rng.integers(1, max_classes + 1))
    classes = []
    for i in range(p):
        size = int(rng.integers(2, 5))
        sup = np.sort(rng.uniform(-3, 3, size))
        while len(set(sup.tolist())) < size:
            sup = np.sort(rng.uniform(-3, 3, size))
        pr = rng.dirichlet(np.ones(size) * 2)
        pr = pr / pr.sum()
        sup = sup - sup @ pr
        classes.append(LossClass(f"g{i}", tuple(sup.tolist()), tuple(pr.tolist())))
    w = rng.dirichlet(np.ones(p))
    model = PortfolioModel(tuple(classes), weights=tuple(w.tolist()))
    c0 = max(max(abs(c.min_support), abs(c.max_support)) for c in classes)
    c1 = min(c.variance for c in classes)
    return model, AssumptionBounds(c0, c1)
