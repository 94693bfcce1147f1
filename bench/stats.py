"""Order statistics and span arithmetic used by the benchmark.

Kept free of numpy so the arithmetic can be checked on hand-made data.
"""

import math


def percentile(samples, p):
    """p-th percentile (0..100) by linear interpolation between closest ranks.

    Matches numpy's default ("linear") method: the value at fractional rank
    (len - 1) * p / 100 of the sorted samples.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must lie in [0, 100]")
    xs = sorted(samples)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def covered_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of each span: its duration minus the time its children cover.

    spans is a list of (name, start, end, parent) with parent the index of the
    enclosing span or -1. Returns a list of self times in span order.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        kids = [(spans[j][1], spans[j][2]) for j in children[i]]
        out.append((end - start) - covered_length(kids, start, end))
    return out
