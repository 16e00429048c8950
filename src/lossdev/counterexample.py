"""Two-class portfolio with density-oscillating assignment whose tail
probabilities decay at two distinct subsequential exponential rates.

The unit class takes values -1/+1 and the double class -2/+2, each with
probability one half.  Interlaced by an accelerating block schedule, the
density of each class oscillates between 0 and 1; along ends of unit
blocks the exact log-tail rate approaches -I1(x), along ends of double
blocks -I2(x).  Because these differ, no single rate function can govern
the full sequence.
"""

from __future__ import annotations

import math

from .exact import exact_log_tail_rate
from .legendre import rate_I1, rate_I2
from .model import (
    AssumptionBounds,
    BlockSchedule,
    DEFAULT_MAX_N,
    MAX_COUNT,
    LossClass,
    MemoryBudgetError,
    PortfolioModel,
    Record,
    Refused,
)

UNIT = LossClass("unit", (-1.0, 1.0), (0.5, 0.5))
DOUBLE = LossClass("double", (-2.0, 2.0), (0.5, 0.5))
BOUNDS = AssumptionBounds(c0=2.0, c1=1.0)


def build_counterexample(growth: int = 10, depth: int = 6,
                         a0: int = 1) -> tuple[PortfolioModel, AssumptionBounds]:
    """Portfolio alternating unit and double blocks with accelerating
    lengths a0 * growth**(j(j+1)/2), so each block dwarfs everything
    before it and the class densities approach 0 and 1.

    ``depth`` is the number of blocks laid out before the schedule
    repeats its growth law indefinitely (the rule itself is infinite;
    depth only bounds which block ends the reports inspect).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rule = BlockSchedule(a0=a0, growth=growth, order=(0, 1), accelerating=True)
    model = PortfolioModel((UNIT, DOUBLE), rule=rule)
    return model, BOUNDS


def schedule_depth_end(rule: BlockSchedule, depth: int, cap: float = math.inf):
    """Last contract index covered by the first ``depth`` blocks, or
    ``cap`` if smaller; no block past the cap is summed."""
    end = j = 0
    while j < depth and end < cap:
        end, j = end + rule.block_length(j), j + 1
    return min(end, cap)


class SubsequencePoint(Record):
    """The density of the unit class and the exact log-tail rate at block end n."""

    __slots__ = ("n", "density_unit", "log_rate")

    def _values(self):
        return self.n, self.density_unit, self.log_rate

    def __init__(self, n: int, density_unit: float, log_rate: float):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "density_unit", density_unit)
        object.__setattr__(self, "log_rate", log_rate)


class SubsequenceReport(Record):
    """Exact log-tail rates along the block ends of one class."""

    __slots__ = ("x", "which", "points", "target", "gap", "partial")

    def _values(self):
        return self.x, self.which, self.points, self.target, self.gap, self.partial

    def __init__(self, x: float,
                 which: int,  # 1 = unit-class ends, 2 = double-class ends
                 points: tuple[SubsequencePoint, ...],
                 target: float,  # -I1(x) or -I2(x); -inf when the rate function is infinite
                 gap: float,
                 partial: bool = False):  # True if deeper points hit the memory budget
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "which", which)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "partial", partial)


def subsequence_rates(model: PortfolioModel, x: float, which: int,
                      max_n: int = DEFAULT_MAX_N) -> SubsequenceReport:
    """Exact log-tail rates at ends of class ``which`` blocks up to max_n.

    Block ends are where the other class's density is minimal, so the
    rates approach the pure-class limit.  Points beyond MAX_COUNT or
    the oracle's memory budget truncate the report, flagged as partial.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    rule = model.rule
    if not isinstance(rule, BlockSchedule):
        raise ValueError("subsequence_rates needs a block-scheduled model")
    ends = rule.block_ends(which - 1, max_n)
    target = -(rate_I1(x) if which == 1 else rate_I2(x))
    points, partial = [], False
    for n in ends:
        if n > MAX_COUNT:
            partial = True
            break
        try:
            lr = exact_log_tail_rate(model, n, x)
        except MemoryBudgetError:
            partial = True
            break
        counts = model.counts(n)
        points.append(SubsequencePoint(n, counts[0] / n, lr))
    if not points:
        raise Refused(f"no complete class-{which} block ends at or below n={max_n}")
    gap = abs(points[-1].log_rate - target) if math.isfinite(target) else math.inf
    return SubsequenceReport(x, which, tuple(points), target, gap, partial)
