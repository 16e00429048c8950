"""Loss classes, portfolio models, and index-assignment rules.

A portfolio is a sequence of independent contracts; contract k draws its
centered loss from one of finitely many loss classes.  The class of
contract k is given either asymptotically (weights per class) or by an
explicit assignment rule (round-robin cycle or a block schedule whose
class densities oscillate).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

PROB_SUM_TOL = 1e-12
CENTER_TOL = 1e-10  # times the largest |support value|
# a portfolio sum this close to the threshold, relative to max(1, |level|),
# is on it: n * x and the sum each carry float round-off of that order
THRESHOLD_RTOL = 1e-12
DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes
MEMORY_BUDGET_ENV = "LOSSDEV_MEMORY_BUDGET"


class ModelError(ValueError):
    """Malformed model data (parse- or construction-stage)."""


class Refused(ValueError):
    """A well-formed query the package declines to compute: outside the
    range where its method holds, or over a resource limit."""


class MemoryBudgetError(Refused, MemoryError):
    """The arrays of a computation would exceed the memory budget."""


# the largest count the package takes: above 2**53 a double no longer
# holds every whole number exactly
MAX_COUNT = 2**53


def check_size(n: int) -> None:
    """Refuse n outside [1, MAX_COUNT]: below 1 there are no contracts."""
    if not 1 <= n <= MAX_COUNT:
        raise Refused(f"n must be in [1, 2**53], got {n}")


def check_budget(n_doubles: int, what: str) -> None:
    """Refuse arrays of ``n_doubles`` doubles over the memory budget: the
    whole number of bytes in ``$LOSSDEV_MEMORY_BUDGET``, 2 GiB if unset."""
    text = os.environ.get(MEMORY_BUDGET_ENV)
    try:
        budget = int(text) if text else DEFAULT_MEMORY_BUDGET
    except ValueError:
        raise Refused(f"${MEMORY_BUDGET_ENV} must be a whole number of bytes, "
                      f"got {text!r}") from None
    if 8 * n_doubles > budget:
        raise MemoryBudgetError(
            f"{what} of {n_doubles} doubles exceed the memory budget "
            f"({budget} bytes; override via ${MEMORY_BUDGET_ENV})")


def reaches(total, level: float, inclusive: bool = True):
    """Whether a portfolio sum ``total`` (a number or an array) is in the
    tail event {S >= level}, or {S > level} with ``inclusive=False``.

    The one threshold comparison of the package: a sum within
    THRESHOLD_RTOL * max(1, |level|) of the level counts as equal to it,
    so an on-grid threshold rounded in n * x is neither lost nor gained.
    """
    slack = THRESHOLD_RTOL * max(1.0, abs(level))
    return total >= level - slack if inclusive else total > level + slack


def _whole(v) -> bool:
    """v is a whole number a double holds exactly (|v| <= MAX_COUNT)."""
    return math.isfinite(v) and v == int(v) and abs(v) <= MAX_COUNT


@dataclass(frozen=True)
class LossClass:
    """A bounded finite-support loss distribution for one contract type.

    Support values are centered losses (currency units).  Probabilities
    are validated to sum to one within ``PROB_SUM_TOL`` and then
    renormalized exactly so that repeated convolution does not drift.
    Zero-mass support points are removed at construction.  A model file
    may give raw losses with ``"center": true``; ``loads_model`` then
    subtracts the mean before building the class.
    """

    name: str
    support: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise ModelError(f"class {self.name!r}: support/probs length mismatch or empty")
        sup = np.asarray(self.support, dtype=float)
        pr = np.asarray(self.probs, dtype=float)
        if not (np.isfinite(sup).all() and np.isfinite(pr).all()):
            raise ModelError(f"class {self.name!r}: support and probs must be finite")
        # before the sum, which overflows on probabilities near the
        # largest double
        if np.any((pr < 0) | (pr > 1)):
            raise ModelError(f"class {self.name!r}: probability outside [0, 1]")
        keep = pr > 0
        sup, pr = sup[keep], pr[keep]
        if sup.size == 0:
            raise ModelError(f"class {self.name!r}: no support points with positive mass")
        if len(set(sup.tolist())) != sup.size:
            raise ModelError(f"class {self.name!r}: duplicate support values")
        s = float(pr.sum())
        if abs(s - 1.0) > PROB_SUM_TOL:
            raise ModelError(f"class {self.name!r}: probabilities sum to {s!r}, not 1")
        pr = pr / s
        order = np.argsort(sup)
        sup, pr = sup[order], pr[order]
        mean = float(sup @ pr)
        # relative to the support: centering leaves a mean of the order
        # of the rounding of its largest value
        if abs(mean) > CENTER_TOL * float(np.abs(sup).max()):
            raise ModelError(f"class {self.name!r}: mean {mean!r} is not 0 "
                             '(a model file may set "center": true)')
        if float(((sup - mean) ** 2) @ pr) <= 0.0:
            raise ModelError(f"class {self.name!r}: zero variance")
        object.__setattr__(self, "support", tuple(sup.tolist()))
        object.__setattr__(self, "probs", tuple(pr.tolist()))

    @property
    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    @property
    def variance(self) -> float:
        sup = np.asarray(self.support)
        return float(((sup - self.mean) ** 2) @ np.asarray(self.probs))

    @property
    def max_support(self) -> float:
        return self.support[-1]

    @property
    def min_support(self) -> float:
        return self.support[0]


@dataclass(frozen=True)
class AssumptionBounds:
    """Uniform bound c0 on |X_k| and uniform variance floor c1."""

    c0: float
    c1: float

    def __post_init__(self):
        if not (0 < self.c0 < math.inf and 0 < self.c1 < math.inf):
            raise ModelError("bounds c0 and c1 must be finite and strictly positive")
        if self.c1 > self.c0**2:
            raise ModelError("c1 > c0^2 is impossible for variables bounded by c0")


@dataclass(frozen=True)
class RoundRobin:
    """Cyclic assignment: a cycle of L = sum(w) slots holds a run of w_i
    consecutive slots for class i, in class order, realizing densities
    w_i / L.  Only the run ends cumsum(w) are used, never the expanded
    cycle, so no cost grows with the weights.

    The certification of ``rate_upper_bound`` rests on this: at
    n = qL + r the density d(n) is a convex combination of w / L and the
    prefix density c_r / r of the first r slots, and within a run of
    class i, c_r / r moves on the segment from the density at the
    previous run end to the one at this run end.  So the densities at
    the ends of the nonzero runs hold every d(n) in their convex hull.
    """

    weights: tuple[int, ...]

    def __post_init__(self):
        if (not self.weights or not all(_whole(w) and w >= 0 for w in self.weights)
                or sum(self.weights) == 0):
            raise ModelError("round-robin weights must be finite whole numbers >= 0 "
                             "with a positive sum")
        object.__setattr__(self, "weights", tuple(map(int, self.weights)))

    @property
    def n_classes(self) -> int:
        return len(self.weights)

    def counts(self, n: int) -> np.ndarray:
        check_size(n)
        w = np.asarray(self.weights, dtype=np.int64)
        ends = np.cumsum(w)
        full, rem = divmod(n, int(ends[-1]))
        return full * w + np.clip(rem - (ends - w), 0, w)

    def density_extremes(self) -> np.ndarray:
        """Prefix densities at the ends of the nonzero runs, the last w / L."""
        w = np.asarray(self.weights, dtype=float)
        prefix = np.tril(np.broadcast_to(w, (w.size, w.size)))[w > 0]
        return prefix / prefix.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class BlockSchedule:
    """Assignment in consecutive blocks cycling through ``order``.

    Block j has length a0 * growth**j.  With ``accelerating=True`` the
    length is a0 * growth**(j*(j+1)/2), i.e. the block-to-block ratio
    itself grows by a factor ``growth`` each block; then the density of
    each class oscillates with liminf 0 and limsup 1, which constant
    ratios cannot achieve (they pin the block-end densities near
    growth/(growth+1)).

    Within a block of class c the density d(n) moves on the segment from
    the previous block end toward e_c, so the block-end densities hold
    every d(n) in their convex hull.  With constant ratio g and
    m = len(order), block end j has density D_j proportional to
    sum_{s<=j} g^-s e_{order[(j-s) mod m]}.  Along each phase i = j mod m,
    D_j moves monotonically on the segment from D_i to the phase's limit,
    and that limit lies on the segment from D_i to D_{m-1}, which is its
    own phase's limit (its sum repeats with period m, scaled by g^-m).
    So the first m block ends hold every d(n) in their hull.
    """

    a0: int
    growth: int
    order: tuple[int, ...]
    accelerating: bool = False

    def __post_init__(self):
        if (not self.order or not all(map(_whole, (self.a0, self.growth, *self.order)))
                or self.a0 < 1 or self.growth < 2 or min(self.order) < 0):
            raise ModelError("block schedule needs whole numbers a0 >= 1, growth >= 2 "
                             "and a nonempty order of class indices >= 0")
        object.__setattr__(self, "a0", int(self.a0))
        object.__setattr__(self, "growth", int(self.growth))
        object.__setattr__(self, "order", tuple(map(int, self.order)))

    @property
    def n_classes(self) -> int:
        return max(self.order) + 1

    def block_length(self, j: int) -> int:
        if self.accelerating:
            return self.a0 * self.growth ** (j * (j + 1) // 2)
        return self.a0 * self.growth**j

    def blocks_upto(self, n: int) -> list[tuple[int, int, int]]:
        """Blocks (start, end, class) intersecting 1..n, 1-based inclusive;
        entry j is block j."""
        out = []
        start, j = 1, 0
        while start <= n:
            end = start + self.block_length(j) - 1
            out.append((start, min(end, n), self.order[j % len(self.order)]))
            start, j = end + 1, j + 1
        return out

    def block_ends(self, cls: int, n_max: int) -> list[int]:
        """Ends of complete blocks of class ``cls`` not exceeding n_max."""
        return [e for j, (s, e, c) in enumerate(self.blocks_upto(n_max))
                if c == cls and e - s + 1 == self.block_length(j)]

    def counts(self, n: int) -> np.ndarray:
        check_size(n)
        out = np.zeros(self.n_classes, dtype=np.int64)
        for s, e, c in self.blocks_upto(n):
            out[c] += e - s + 1
        return out

    def density_extremes(self) -> np.ndarray:
        """The unit vectors of the classes in ``order`` for accelerating
        blocks; otherwise the densities at the first len(order) block ends."""
        eye = np.eye(self.n_classes)
        if self.accelerating:
            return eye[sorted(set(self.order))]
        rows, counts = [], np.zeros(self.n_classes)
        for c in self.order:
            counts = counts / self.growth + eye[c]  # counts at this block end / its length
            rows.append(counts / counts.sum())
        return np.array(rows)


AssignmentRule = RoundRobin | BlockSchedule


@dataclass(frozen=True)
class PortfolioModel:
    """Loss classes plus either asymptotic class weights or an assignment rule."""

    classes: tuple[LossClass, ...]
    weights: tuple[float, ...] | None = None
    rule: AssignmentRule | None = None

    def __post_init__(self):
        if (self.weights is None) == (self.rule is None):
            raise ModelError("exactly one of weights / rule must be given")
        if self.weights is not None:
            if len(self.weights) != len(self.classes):
                raise ModelError("one weight per class required")
            w = np.asarray(self.weights, dtype=float)
            if not np.isfinite(w).all() or np.any(w < 0) or abs(w.sum() - 1.0) > PROB_SUM_TOL:
                raise ModelError("weights must be finite, nonnegative and sum to 1")
            object.__setattr__(self, "weights", tuple((w / w.sum()).tolist()))
        else:
            if self.rule.n_classes > len(self.classes):
                raise ModelError("assignment rule refers to a class index out of range")

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def counts(self, n: int) -> np.ndarray:
        """Per-class contract counts among indices 1..n.

        Weighted models are realized deterministically by largest-remainder
        apportionment (ties broken by class index), which is consistent with
        any assignment whose densities converge to the weights.
        """
        check_size(n)
        if self.rule is not None:
            out = self.rule.counts(n)
            if len(out) < len(self.classes):
                out = np.concatenate([out, np.zeros(len(self.classes) - len(out), np.int64)])
            return out
        return apportion(np.asarray(self.weights), n)

    def densities(self) -> np.ndarray:
        if self.weights is None:
            raise ModelError("densities are defined for weighted models only")
        return np.asarray(self.weights, dtype=float)

    def density_extremes(self) -> np.ndarray:
        """A (k x classes) array whose convex hull holds counts(n) / n for
        every n >= 1: the rule's own extremes, or for a weighted model the
        unit vectors of its positive-weight classes, the face
        apportionment never leaves."""
        if self.rule is None:
            return np.eye(len(self.classes))[np.asarray(self.weights) > 0]
        ext = self.rule.density_extremes()
        return np.pad(ext, ((0, 0), (0, len(self.classes) - ext.shape[1])))


def apportion(weights: np.ndarray, n: int) -> np.ndarray:
    """Largest-remainder apportionment of n slots to ``weights``."""
    quota = weights * n
    out = np.floor(quota).astype(np.int64)
    rem = n - int(out.sum())
    if rem > 0:
        frac = quota - out
        # stable sort: ties go to the lower class index
        for idx in np.argsort(-frac, kind="stable")[:rem]:
            out[idx] += 1
    return out


def check_assumptions(model: PortfolioModel, bounds: AssumptionBounds) -> None:
    """Raise ModelError on the first class that breaks the independence
    model's assumptions: |X_k| <= c0 and variance >= c1, each with a
    relative slack of 1e-12."""
    for cls in model.classes:
        worst = max(abs(cls.min_support), abs(cls.max_support))
        if worst > bounds.c0 * (1 + 1e-12):
            raise ModelError(f"class {cls.name!r} violates bound: "
                             f"|support| reaches {worst!r} > c0 = {bounds.c0!r}")
        if cls.variance < bounds.c1 * (1 - 1e-12):
            raise ModelError(f"class {cls.name!r} violates variance floor: "
                             f"variance {cls.variance!r} < c1 = {bounds.c1!r}")


@dataclass(frozen=True)
class DensityProfile:
    n: np.ndarray
    density: np.ndarray  # nu_1(n) / n, class index 0
    running_min: float
    running_max: float


def density_profile(rule: AssignmentRule, n_max: int) -> DensityProfile:
    """Density nu_1(n)/n of the first class for n = 1..n_max, with its
    running extremes, from the class of each contract: the cycle run its
    slot falls in (a search among the run ends) or its block.  O(n_max)
    whatever the cycle length."""
    if n_max < 1:
        raise ModelError("n_max must be >= 1")
    if isinstance(rule, RoundRobin):
        ends = np.cumsum(rule.weights)
        assign = np.searchsorted(ends, np.arange(n_max) % ends[-1], side="right")
    else:
        assign = np.empty(n_max, dtype=np.int64)
        for s, e, c in rule.blocks_upto(n_max):
            assign[s - 1:e] = c
    ns = np.arange(1, n_max + 1)
    dens = np.cumsum(assign == 0) / ns
    return DensityProfile(ns, dens, float(dens.min()), float(dens.max()))


# ---------------------------------------------------------------------------
# model file format (JSON)
# ---------------------------------------------------------------------------

def loads_model(data: str | bytes) -> tuple[PortfolioModel, AssumptionBounds]:
    """Parse a JSON model document, text or UTF-8 bytes, and validate it.

    Schema::

        {"bounds": {"c0": .., "c1": ..},
         "classes": [{"name": .., "support": [..], "probs": [..], "center": bool}],
         "regime": {"weighted": {"weights": [..]}}
                 | {"assigned": {"round_robin": {"weights": [..]}}
                              | {"blocks": {"a0": .., "growth": .., "order": [..],
                                            "accelerating": bool}}}}

    Raises ModelError on bytes that are not UTF-8, on a malformed
    document, with the offending field, including a number that is not
    finite (JSON ``NaN``, ``Infinity`` or an overflowing literal such as
    ``1e400``), or on the first class that breaks an assumption
    (``check_assumptions``).  A class with ``"center": true`` gives raw
    losses: its probability-weighted mean is subtracted from its support.
    """
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise ModelError(f"not UTF-8 text at byte {exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc

    def need(d, key, where, kind=object):
        if not isinstance(d, dict) or key not in d:
            raise ModelError(f"missing field {key!r} in {where}")
        if not isinstance(d[key], kind):
            raise ModelError(f"{where}.{key} is not a {kind.__name__}: {d[key]!r}")
        return d[key]

    def number(v, where):
        try:
            out = float(v)
        except (TypeError, ValueError):
            raise ModelError(f"{where} is not a number: {v!r}") from None
        except OverflowError:  # an integer literal beyond the double range
            out = math.inf
        if not math.isfinite(out):
            raise ModelError(f"{where} is not finite: {v!r}")
        return out

    def numbers(d, key, where):
        values = need(d, key, where, list)
        return tuple(number(v, f"{where}.{key}[{i}]") for i, v in enumerate(values))

    b = need(doc, "bounds", "document")
    bounds = AssumptionBounds(number(need(b, "c0", "bounds"), "bounds.c0"),
                              number(need(b, "c1", "bounds"), "bounds.c1"))
    classes = []
    for i, c in enumerate(need(doc, "classes", "document", list)):
        name = str(need(c, "name", f"classes[{i}]"))
        support = numbers(c, "support", f"classes[{i}]")
        probs = numbers(c, "probs", f"classes[{i}]")
        if c.get("center", False):
            try:
                mean = math.fsum(v * p for v, p in zip(support, probs)) / math.fsum(probs)
            except (ArithmeticError, ValueError):  # no mean: LossClass refuses the probs
                mean = 0.0
            support = tuple(v - mean for v in support)
        classes.append(LossClass(name, support, probs))
    regime = need(doc, "regime", "document", dict)
    if "weighted" in regime:
        w = numbers(regime["weighted"], "weights", "regime.weighted")
        model = PortfolioModel(tuple(classes), weights=w)
    elif "assigned" in regime:
        a = need(regime, "assigned", "regime", dict)
        # the rules refuse fields that are not whole numbers; none is truncated
        if "round_robin" in a:
            rr = numbers(a["round_robin"], "weights", "round_robin")
            model = PortfolioModel(tuple(classes), rule=RoundRobin(rr))
        elif "blocks" in a:
            blk = a["blocks"]
            model = PortfolioModel(tuple(classes), rule=BlockSchedule(
                a0=number(need(blk, "a0", "blocks"), "blocks.a0"),
                growth=number(need(blk, "growth", "blocks"), "blocks.growth"),
                order=numbers(blk, "order", "blocks"),
                accelerating=bool(blk.get("accelerating", False)),
            ))
        else:
            raise ModelError("regime.assigned needs 'round_robin' or 'blocks'")
    else:
        raise ModelError("regime needs 'weighted' or 'assigned'")

    check_assumptions(model, bounds)
    return model, bounds
