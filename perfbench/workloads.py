"""The benchmark's workloads: seeded inputs, one solve, exact checks.

A workload hands out its inputs in rounds.  A round always holds the
same mix of input kinds (drawn afresh, in a seeded order, from the
seed), so runs that complete whole rounds do the same kind of work
whatever the seed.  ``solve`` is the only part that runs under the
timer; inputs are built before it and ``check`` runs after the round,
against references that share no code with the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import motivic_power as mp
from motivic_power import Polynomial, RingDescriptor, Series, VarietyClass

import reference

UV = RingDescriptor(("u", "v"))
LAURENT = mp.MOTIVIC_RING
INTEGERS = mp.INTEGERS


@dataclass
class Case:
    """One solve's input: a label for the record plus library objects."""

    label: str
    data: Dict[str, Any]


def describe(series: Series) -> Tuple[int, int]:
    """Largest coefficient bit length, and terms in the top coefficient."""
    bits = max((abs(c).bit_length() for p in series.coefficients
                for c in p.terms.values()), default=0)
    return bits, len(series.coefficients[-1].terms)


def terms_of(series: Series) -> List[Dict[Tuple[int, ...], int]]:
    return [p.terms for p in series.coefficients]


class HilbertMotivic:
    """Hilbert-scheme series of rational surfaces [X] = L^2 + aL + 1.

    Each round solves a = 1, 2, 3 in a seeded order, over Z[L^(+-)] at
    an order where the coefficients leave int64 (62 to 82 bits at order
    160), so the limb route carries the big values.
    """

    name = "hilbert-motivic"
    order = 160
    warm_order = 80

    def round(self, seed: int, index: int, order: int) -> List[Case]:
        rng = random.Random("%s:%d:%d" % (self.name, seed, index))
        L = Polynomial.variable(LAURENT, "L")
        cases = []
        for a in rng.sample([1, 2, 3], 3):
            X = VarietyClass(L ** 2 + a * L + 1, 2)
            cases.append(Case("L^2+%dL+1" % a, {"X": X, "a": a, "order": order}))
        return cases

    def solve(self, case: Case):
        order = case.data["order"]
        local = mp.local_series(2, order)
        series = mp.global_series(case.data["X"], local, order)
        return series, mp.euler_specialization(series)

    def check(self, case: Case, result, refs: dict) -> bool:
        series, euler = result
        a, order = case.data["a"], case.data["order"]
        key = (self.name, a, order)
        if key not in refs:
            refs[key] = (
                reference.goettsche_series({(0,): 1, (1,): a, (2,): 1}, (1,), order),
                reference.euler_product(a + 2, order),
            )
        motivic, euler_ref = refs[key]
        return (series.ring == LAURENT and series.order == order
                and terms_of(series) == motivic
                and euler.ring == INTEGERS
                and [p.terms.get((), 0) for p in euler.coefficients] == euler_ref
                and all(len(p.terms) <= 1 for p in euler.coefficients))

    def describe(self, result) -> Tuple[int, int]:
        return describe(result[0])


def hodge_class(q: int, pg: int, h11: int) -> Polynomial:
    """e(X) of a surface with h^{1,0} = q, h^{2,0} = p_g, h^{1,1} = h11."""
    u = Polynomial.variable(UV, "u")
    v = Polynomial.variable(UV, "v")
    return (1 - q * (u + v) + pg * (u ** 2 + v ** 2) + h11 * u * v
            - q * (u ** 2 * v + u * v ** 2) + u ** 2 * v ** 2)


class HodgeSurfaces:
    """Hodge-Deligne series of surfaces over Z[u, v].

    Each round solves a P^2-type, a K3-type and an abelian-type diamond
    plus one seeded diamond with p_g = 0 (q in {0, 1}, h11 in 1..10),
    in a seeded order.
    """

    name = "hodge-surfaces"
    order = 40
    warm_order = 16
    P2 = (0, 0, 1)

    def round(self, seed: int, index: int, order: int) -> List[Case]:
        rng = random.Random("%s:%d:%d" % (self.name, seed, index))
        diamonds = [self.P2, (0, 1, 20), (2, 1, 4),
                    (rng.randint(0, 1), 0, rng.randint(1, 10))]
        cases = []
        for d in rng.sample(diamonds, len(diamonds)):
            e = hodge_class(*d)
            cases.append(Case("q=%d,pg=%d,h11=%d" % d,
                              {"X": VarietyClass(e, 2), "diamond": d,
                               "e": dict(e.terms), "order": order}))
        return cases

    def solve(self, case: Case):
        series = mp.hodge_deligne_series(case.data["X"], case.data["order"])
        return series, mp.euler_specialization(series)

    def check(self, case: Case, result, refs: dict) -> bool:
        series, euler = result
        d, order, e = case.data["diamond"], case.data["order"], case.data["e"]
        key = (self.name, d, order)
        if key not in refs:
            refs[key] = (reference.goettsche_series(e, (1, 1), order),
                         reference.euler_product(sum(e.values()), order))
        hodge, euler_ref = refs[key]
        got = terms_of(series)
        ok = (series.ring == UV and series.order == order and got == hodge
              and [sum(t.values()) for t in got] == euler_ref
              and [p.terms.get((), 0) for p in euler.coefficients] == euler_ref)
        if d == self.P2:
            # the P^2 series is the motivic one pushed through L -> uv
            motivic = reference.goettsche_series(
                {(0,): 1, (1,): 1, (2,): 1}, (1,), order)
            ok = ok and got == reference.along_line(motivic)
        return ok

    def describe(self, result) -> Tuple[int, int]:
        return describe(result[0])


LAWS = (1, 2, 3, 4, 5, 6, 7)


def _exponent_pool(ring: RingDescriptor, max_degree: int):
    lo = -max_degree if ring.laurent else 0
    pool = [()]
    for _ in range(ring.nvars):
        pool = [e + (x,) for e in pool for x in range(lo, max_degree + 1)]
    return [e for e in pool if sum(abs(x) for x in e) <= max_degree]


def random_polynomial(rng: random.Random, ring: RingDescriptor) -> Polynomial:
    """Coefficients uniform in [-3, 3] on exponents of total degree <= 2."""
    terms = {}
    for exps in _exponent_pool(ring, 2):
        c = rng.randint(-3, 3)
        if c:
            terms[exps] = c
    return Polynomial(ring, terms)


def random_series(rng: random.Random, ring: RingDescriptor, order: int) -> Series:
    return Series(ring, order, [Polynomial.one(ring)]
                  + [random_polynomial(rng, ring) for _ in range(order)])


class AxiomsSmall:
    """One seeded sample of the seven exponentiation laws per solve.

    A round is eight samples over Z[u, v], one over Z and one over
    Z[L^(+-)], in a seeded order, all at order 10 (the acceptance
    suite's configuration).
    """

    name = "axioms-small"
    order = 10
    warm_order = 6
    RINGS = [UV] * 8 + [INTEGERS, LAURENT]

    def round(self, seed: int, index: int, order: int) -> List[Case]:
        rng = random.Random("%s:%d:%d" % (self.name, seed, index))
        cases = []
        for i, ring in enumerate(rng.sample(self.RINGS, len(self.RINGS))):
            draw = random.Random("%s:%d:%d:%d" % (self.name, seed, index, i))
            data = {
                "ring": ring, "order": order,
                "A": random_series(draw, ring, order),
                "B": random_series(draw, ring, order),
                "m": random_polynomial(draw, ring),
                "n": random_polynomial(draw, ring),
                "k": draw.randint(2, 3),
            }
            cases.append(Case(str(ring), data))
        return cases

    def solve(self, case: Case):
        """Both sides of every law, as (law, left, right) triples."""
        d = case.data
        ring, order = d["ring"], d["order"]
        A, B, m, n, k = d["A"], d["B"], d["m"], d["n"], d["k"]
        pow_series = mp.pow_series
        pow_A_m = pow_series(A, m)
        pow_A_n = pow_series(A, n)
        one_plus_t = Series(ring, order, [1, 1] + [0] * (order - 1))
        P = pow_series(one_plus_t, m)
        return [
            (1, pow_series(A, Polynomial.zero(ring)), Series.one(ring, order)),
            (2, pow_series(A, Polynomial.one(ring)), A),
            (3, pow_series(A * B, m), pow_A_m * pow_series(B, m)),
            (4, pow_series(A, m + n), pow_A_m * pow_A_n),
            (5, pow_series(A, m * n), pow_series(pow_A_n, m)),
            (6, P.truncate(1), Series(ring, 1, [1, m])),
            (7, pow_series(A.rescale(k), m), pow_A_m.rescale(k)),
        ]

    def check(self, case: Case, result, refs: dict) -> bool:
        return [law for law, _, _ in result] == list(LAWS) and \
            all(left == right for _, left, right in result)

    def describe(self, result) -> Tuple[int, int]:
        return describe(result[2][1])


WORKLOADS = {w.name: w for w in (HilbertMotivic(), HodgeSurfaces(), AxiomsSmall())}
