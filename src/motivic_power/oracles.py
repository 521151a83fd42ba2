"""Brute-force counting oracles, kept independent of the power machinery.

These reimplement, at the level of finite sets, the configuration-space
description of raising a series to a variety-class power: pairs (K, phi)
of a finite subset K of an m-point set and a weight assignment phi into a
graded set.  They exist to cross-check the factorization route and the
bundled surface data, so they deliberately share no code with
:mod:`motivic_power.power`; counting is done by explicit enumeration and
falling factorials.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import factorial
from typing import List, Sequence, Tuple

from .rings import Polynomial, RingDescriptor, _Frozen

# Exhaustive enumeration visits (1 + sum of sizes)^m candidate pairs; the
# guard keeps a single oracle call to a few seconds of work.
_ENUMERATION_LIMIT = 50_000_000

_PARTITION_LIMIT = 60
_PUNCTUAL_LIMIT = 40

_L_RING = RingDescriptor(("L",), laurent=True)


class WeightProfile(_Frozen):
    """Sizes of the weight-graded pieces plus the number of base points.

    ``sizes[i-1]`` is the number of elements of weight i; ``points`` is
    the size of the base set whose subsets get decorated.
    """

    __slots__ = ("sizes", "points")

    def __init__(self, sizes: Sequence[int], points: int):
        sizes = tuple(sizes)
        if any(not isinstance(a, int) or a < 0 for a in sizes):
            raise ValueError("sizes must be nonnegative integers")
        if not isinstance(points, int) or points < 0:
            raise ValueError("points must be a nonnegative integer")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "points", points)

    def __repr__(self):
        return "WeightProfile(sizes=%r, points=%d)" % (list(self.sizes), self.points)

    def _guard(self):
        cost = (1 + sum(self.sizes)) ** self.points
        if cost > _ENUMERATION_LIMIT:
            raise ValueError(
                "profile too large for exhaustive enumeration "
                "((1+%d)^%d = %d candidate pairs, limit %d)"
                % (sum(self.sizes), self.points, cost, _ENUMERATION_LIMIT)
            )


def finite_power_enumerate(profile: WeightProfile, order: int) -> List[int]:
    """Count decorated subsets by total weight, fully exhaustively.

    Walks every subset K of the point set and every map from K into the
    graded set, and tallies sum-of-weights.  Quadratic-time shortcuts are
    deliberately avoided; this is the reference the closed formula and
    the power operation are measured against.
    """
    profile._guard()
    weights = [i for i, a in enumerate(profile.sizes, start=1) for _ in range(a)]
    counts = [0] * (order + 1)
    for s in range(profile.points + 1):
        for _subset in combinations(range(profile.points), s):
            for phi in product(weights, repeat=s):
                w = sum(phi)
                if w <= order:
                    counts[w] += 1
    return counts


@lru_cache(maxsize=None)
def _weighted_vectors(total: int, max_weight: int) -> Tuple[Tuple[int, ...], ...]:
    """All multiplicity vectors (k_1..k_W) with sum i*k_i == total."""
    def rec(remaining, weight):
        if weight == 0:
            if remaining == 0:
                yield ()
            return
        for k in range(remaining // weight + 1):
            for rest in rec(remaining - weight * k, weight - 1):
                yield rest + (k,)
    return tuple(rec(total, max_weight))


def coefficient_formula_count(profile: WeightProfile, order: int) -> List[int]:
    """The closed configuration-space count, by falling factorials.

    Coefficient k sums, over multiplicity vectors with sum i*k_i = k,
    the number of off-diagonal point tuples divided by the permutation
    group orders, times the weight-class choices:

        m (m-1) ... (m - sum k_i + 1) / prod k_i!  *  prod sizes_i^{k_i}

    Vectors needing more than m points contribute zero, not an error.
    """
    profile._guard()
    sizes = profile.sizes
    m = profile.points
    width = len(sizes)
    counts = [0] * (order + 1)
    counts[0] = 1
    for k in range(1, order + 1):
        total = 0
        for vector in _weighted_vectors(k, min(width, k)):
            chosen = sum(vector)
            falling = 1
            for step in range(chosen):
                falling *= m - step
            if falling == 0:
                continue
            value_choices = 1
            for i, ki in enumerate(vector):
                if ki:
                    value_choices *= sizes[i] ** ki
            if value_choices == 0:
                continue
            denom = 1
            for ki in vector:
                denom *= factorial(ki)
            q, r = divmod(falling * value_choices, denom)
            assert r == 0
            total += q
        counts[k] = total
    return counts


def partitions_enumerate(n: int) -> List[Tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples of positive parts."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if n > _PARTITION_LIMIT:
        raise ValueError(
            "partition enumeration is capped at n <= %d" % _PARTITION_LIMIT
        )
    out: List[Tuple[int, ...]] = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(largest, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n if n else 1, ())
    return out


def partition_count(n: int) -> int:
    return len(partitions_enumerate(n))


def punctual_surface_class_oracle(n: int) -> Polynomial:
    """Class of the rank-n punctual locus on a smooth surface, in L.

    Computed as the partition sum: each partition of n with r parts
    contributes L^(n-r).  Evaluating at L = 1 therefore recovers the
    partition number.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > _PUNCTUAL_LIMIT:
        raise ValueError("punctual classes are capped at n <= %d" % _PUNCTUAL_LIMIT)
    counts = {}
    for part in partitions_enumerate(n):
        e = n - len(part)
        counts[e] = counts.get(e, 0) + 1
    return Polynomial(_L_RING, {(e,): c for e, c in counts.items()})
