"""Small shared statistics helpers: geometric means, order statistics and the k-subsets of range(n)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterator, Sequence

import numpy as np


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values.

    Uses the plain product when it stays in range (exact for small hand
    cases), falling back to the log-domain mean otherwise.
    """
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires strictly positive values")
    product = 1.0
    for v in values:
        product *= v
    if 0.0 < product < math.inf:
        return product ** (1.0 / len(values))
    return math.exp(sum(math.log(v) for v in values) / len(values))


def positive_geomean(values: Sequence[float]) -> tuple[float | None, int]:
    """Geomean over the positive entries, plus how many zeros were excluded.

    Zeros are dropped rather than epsilon-substituted so the exclusion stays
    auditable. Returns (None, excluded) when nothing positive remains.
    """
    positives = [v for v in values if v > 0]
    excluded = len(values) - len(positives)
    if not positives:
        return None, excluded
    return geometric_mean(positives), excluded


def _percentile(ordered: Sequence[float], q: float) -> float:
    """`np.percentile(values, 100 * q, method="linear")` of the sorted `values`, by numpy's own arithmetic.

    numpy's linear quantile sits at index (n - 1) * q; at or past the last
    index both neighbours are the last value and the weight is the index + 1.
    A NaN, which sorts last, makes every quantile NaN, as in numpy. Where
    0.0 and -0.0 are both present, the sort may order them unlike numpy's
    partition, so a quantile may be the other zero.
    """
    if ordered[-1] != ordered[-1]:
        return math.nan
    at = (len(ordered) - 1) * q
    below, above = (math.floor(at), math.floor(at) + 1) if at < len(ordered) - 1 else (-1, -1)
    a, b, t = ordered[below], ordered[above], at - below
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


@dataclass(frozen=True)
class BoxStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "BoxStats":
        if not values:
            raise ValueError("BoxStats of empty sequence")
        arr = np.asarray(values, dtype=float)
        ordered = np.sort(arr).tolist()
        # np.percentile would import numpy.ma, about 15 ms per process, for three interpolations
        q1, med, q3 = (_percentile(ordered, q) for q in (0.25, 0.5, 0.75))
        return cls(float(arr.min()), q1, med, q3, float(arr.max()))


def subset_rows(n: int, k: int, chunk: int) -> Iterator[np.ndarray]:
    """Index rows of every size-k subset of range(n), in lexicographic order, a chunk at a time.

    Each subset is a head (its first k - 1 members, from
    `combinations(range(n - 1), k - 1)`) and a last member that runs from
    one past the head to n - 1. A chunk holds whole runs of heads: the fewest
    that reach `chunk` rows, so at least `chunk` rows unless it is the last
    one, and fewer than chunk + n.
    """
    if k == 1:
        for start in range(0, n, chunk):
            yield np.arange(start, min(n, start + chunk))[:, None]
        return
    heads = combinations(range(n - 1), k - 1)
    step = max(1, chunk // n)
    pending = np.empty((0, k - 1), dtype=np.intp)
    while True:
        batch = np.fromiter(chain.from_iterable(islice(heads, step)), dtype=np.intp).reshape(-1, k - 1)
        pending = np.concatenate((pending, batch))
        ends = np.cumsum(n - 1 - pending[:, -1])  # rows up to and including each head, each head 1 or more
        while len(pending) and (ends[-1] >= chunk or not len(batch)):
            cut = min(int(np.searchsorted(ends, chunk)) + 1, len(pending))
            head, length = pending[:cut], n - 1 - pending[:cut, -1]
            rows = np.empty((int(ends[cut - 1]), k), dtype=np.intp)
            rows[:, :-1] = np.repeat(head, length, axis=0)
            rows[:, -1] = np.arange(len(rows)) - np.repeat(ends[:cut] - length - head[:, -1] - 1, length)
            yield rows
            pending, ends = pending[cut:], ends[cut:] - ends[cut - 1]
        if not len(batch):
            return
