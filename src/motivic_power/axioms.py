"""Seeded randomized checks of the seven exponentiation laws.

The same suite backs the ``axioms`` CLI command and the acceptance
tests.  Each sample draws its randomness from a stream derived from
(seed, sample index), so a run is reproducible and samples can be
checked independently or in parallel with identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Sequence, Tuple

from .power import pow_series
from .rings import Polynomial, RingDescriptor
from .series import Series

PROPERTY_NAMES = {
    1: "A^0 = 1",
    2: "A^1 = A",
    3: "(A*B)^m = A^m * B^m",
    4: "A^(m+n) = A^m * A^n",
    5: "A^(m*n) = (A^n)^m",
    6: "(1+t)^m = 1 + m*t + higher order",
    7: "A(t^k)^m = (A^m)(t^k)",
}


@lru_cache(maxsize=None)
def _exponent_pool(ring: RingDescriptor, max_degree: int) -> Tuple[tuple, ...]:
    """Exponent vectors with total size at most max_degree, in
    lexicographic order, built once per ring and degree.

    For Laurent rings the pool includes negative entries, measured by
    the sum of absolute values.  Each entry ranges only over the budget
    the entries before it left, so no vector outside the pool is formed.
    """
    pool = [((), max_degree)]
    for _ in range(ring.nvars):
        pool = [(exps + (e,), left - abs(e)) for exps, left in pool
                for e in range(-left if ring.laurent else 0, left + 1)]
    return tuple(exps for exps, _ in pool)


def random_polynomial(rng: random.Random, ring: RingDescriptor,
                      max_degree: int = 2, coeff_bound: int = 3,
                      effective: bool = False) -> Polynomial:
    """Uniform coefficients in [-bound, bound] on every exponent vector
    of total degree at most ``max_degree`` (absolute degree if Laurent)."""
    lo = 0 if effective else -coeff_bound
    terms = {}
    for exps in _exponent_pool(ring, max_degree):
        c = rng.randint(lo, coeff_bound)
        if c:
            terms[exps] = c
    return Polynomial(ring, terms)


def random_unital_series(rng: random.Random, ring: RingDescriptor, order: int,
                         max_degree: int = 2, coeff_bound: int = 3,
                         effective: bool = False) -> Series:
    coeffs = [Polynomial.one(ring)]
    for _ in range(order):
        coeffs.append(random_polynomial(rng, ring, max_degree, coeff_bound,
                                        effective))
    return Series(ring, order, coeffs)


def sample_failures(variables: Sequence[str], laurent: bool, order: int,
                    seed: int, index: int) -> List[str]:
    """Check properties 1-7 on the sample stream (seed, index).

    Returns human-readable failure descriptions, empty when all hold.
    The argument list sticks to primitives so the function maps cleanly
    over worker processes.
    """
    ring = RingDescriptor(tuple(variables), laurent)
    rng = random.Random("%d:%d" % (seed, index))
    failures: List[str] = []

    def record(pid, condition, detail):
        if not condition:
            failures.append(
                "property %d failed at sample %d: %s" % (pid, index, detail)
            )

    A = random_unital_series(rng, ring, order)
    B = random_unital_series(rng, ring, order)
    m = random_polynomial(rng, ring)
    n = random_polynomial(rng, ring)
    k = rng.randint(2, 3)
    one = Series.one(ring, order)
    pow_A_m = pow_series(A, m)
    pow_A_n = pow_series(A, n)
    record(1, pow_series(A, Polynomial.zero(ring)) == one, "A^0 != 1")
    record(2, pow_series(A, Polynomial.one(ring)) == A, "A^1 != A")
    record(3, pow_series(A * B, m) == pow_A_m * pow_series(B, m),
           "(A*B)^m != A^m*B^m")
    record(4, pow_series(A, m + n) == pow_A_m * pow_A_n, "A^(m+n) != A^m*A^n")
    record(5, pow_series(A, m * n) == pow_series(pow_A_n, m),
           "A^(m*n) != (A^n)^m")
    if order >= 1:
        one_plus_t = Series(ring, order, [1, 1] + [0] * (order - 1))
        P = pow_series(one_plus_t, m)
        record(6, P.coefficient(0) == 1 and P.coefficient(1) == m,
               "(1+t)^m does not start 1 + m*t")
    record(7, pow_series(A.rescale(k), m) == pow_A_m.rescale(k),
           "rescaling t -> t^%d does not commute" % k)
    return failures


@dataclass
class AxiomReport:
    ring: RingDescriptor
    order: int
    samples: int
    seed: int
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self) -> List[str]:
        lines = [
            "axioms: ring=%s order=%d samples=%d seed=%d"
            % (self.ring, self.order, self.samples, self.seed)
        ]
        for pid in sorted(PROPERTY_NAMES):
            bad = [f for f in self.failures if f.startswith("property %d" % pid)]
            status = "FAIL (%d)" % len(bad) if bad else "pass"
            lines.append("property %d  %-34s %s" % (pid, PROPERTY_NAMES[pid], status))
        lines.append("result: %s" % ("PASS" if self.ok else "FAIL"))
        return lines


def run_axiom_suite(ring: RingDescriptor, order: int, samples: int,
                    seed: int) -> AxiomReport:
    """Check properties 1-7 on ``samples`` random (A, B, m, n) tuples."""
    report = AxiomReport(ring=ring, order=order, samples=samples, seed=seed)
    for index in range(samples):
        report.failures.extend(
            sample_failures(ring.variables, ring.laurent, order, seed, index)
        )
    return report
