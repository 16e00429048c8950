"""Slow reference for the exact tail: the law of the portfolio sum by
direct convolution in log space, one contract at a time, on the lattice
``exact_log_tail`` sets up: each class's minimum as an offset and one
step g from the gaps within the classes."""

import math

import numpy as np

from lossdev.exact import latticize


def direct_log_pmf(model, n):
    """(offset, g, logp) with logp[j] = log P[S_n = offset + j g], offset
    the sum of nu_c v_min,c over the classes with contracts and g their
    lattice step: O(n^2 span) logaddexp over the support shifts of each
    contract's class."""
    live = [(cls, int(nu)) for cls, nu in zip(model.classes, model.counts(n)) if nu > 0]
    g = latticize([cls for cls, _ in live])
    logp = np.zeros(1)
    for cls, nu in live:
        shifts = np.rint((np.asarray(cls.support) - cls.min_support) / g).astype(int)
        lps = np.log(cls.probs)
        for _ in range(nu):
            new = np.full(len(logp) + shifts[-1], -np.inf)
            new[:len(logp)] = logp + lps[0]  # shift 0 meets only -inf
            for s, lp in zip(shifts[1:], lps[1:]):
                np.logaddexp(new[s:s + len(logp)], logp + lp, out=new[s:s + len(logp)])
            logp = new
    return math.fsum(nu * cls.min_support for cls, nu in live), g, logp
