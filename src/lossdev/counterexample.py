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

    The rule itself is infinite: ``depth`` is only checked to be at
    least 1 here, and the CLI stops its reports at the end of the first
    ``depth`` blocks through ``schedule_depth_end``.
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


class SubsequenceReport(Record):
    """Exact log-tail rates along the block ends of one class: ``which``
    is 1 for the unit-class ends, 2 for the double-class ends, and
    ``target`` is -I1(x) or -I2(x), -inf where the rate function is
    infinite.  ``partial`` is True when deeper block ends were left out,
    past 2**53 or over the memory budget."""

    __slots__ = ("x", "which", "points", "target", "gap", "partial")

    def __init__(self, x: float, which: int, points: tuple[SubsequencePoint, ...],
                 target: float, gap: float, partial: bool = False):
        super().__init__(x, which, points, target, gap, partial)


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
