"""Slow reference for the exact tail: the law of the portfolio sum by
direct convolution in log space, one contract at a time."""

import numpy as np

from lossdev.exact import latticize


def direct_log_pmf(model, n):
    """(offset, logp) with logp[j] = log P[S_n = (offset + j) g], g the
    model's lattice step: O(n^2 span) logaddexp over the support shifts
    of each contract's class."""
    g = latticize(model)
    offset, logp = 0, np.zeros(1)
    for cls, nu in zip(model.classes, model.counts(n)):
        idx = np.rint(np.asarray(cls.support) / g).astype(int)
        shifts, lps = idx - idx[0], np.log(cls.probs)
        for _ in range(int(nu)):
            new = np.full(len(logp) + shifts[-1], -np.inf)
            new[:len(logp)] = logp + lps[0]  # shift 0 meets only -inf
            for s, lp in zip(shifts[1:], lps[1:]):
                np.logaddexp(new[s:s + len(logp)], logp + lp, out=new[s:s + len(logp)])
            offset, logp = offset + int(idx[0]), new
    return offset, logp
