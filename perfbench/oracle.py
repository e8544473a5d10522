"""Reference scoring from ranked hit/miss flags, independent of vceval.

Both functions take the flags of a detection list already sorted by
descending score (True for a true positive) and the number of ground truths.
"""

from __future__ import annotations


def average_precision(ranked: list[bool], n_gt: int) -> float:
    """All-point interpolated AP: each recall step times the best precision
    reached at that rank or any later one."""
    precisions, hits = [], 0
    for rank, hit in enumerate(ranked, start=1):
        hits += hit
        precisions.append(hits / rank)
    ap, best = 0.0, 0.0
    for rank in range(len(ranked) - 1, -1, -1):
        best = max(best, precisions[rank])
        if ranked[rank]:
            ap += best / n_gt
    return ap


def f1_max(ranked: list[bool], n_gt: int) -> float:
    """Best F1 over all cut-offs of the ranking (0 before the first hit)."""
    best, hits = 0.0, 0
    for rank, hit in enumerate(ranked, start=1):
        hits += hit
        p, r = hits / rank, hits / n_gt
        if p + r:
            best = max(best, 2.0 * p * r / (p + r))
    return best
