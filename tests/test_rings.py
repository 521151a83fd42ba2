import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_power.rings import (
    INTEGERS,
    MonomialMap,
    Polynomial,
    RingDescriptor,
    RingMismatchError,
    _accumulate_product,
)

from conftest import LAURENT_L, UV, polynomials


class TestRingDescriptor:
    def test_integers_has_no_variables(self):
        assert INTEGERS.nvars == 0
        assert not INTEGERS.laurent

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RingDescriptor(("u", "u"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RingDescriptor(("",))

    def test_json_round_trip(self):
        for ring in (INTEGERS, LAURENT_L, UV):
            assert RingDescriptor.from_json(ring.to_json()) == ring


class TestPolynomialBasics:
    def test_zero_terms_pruned(self):
        p = Polynomial(UV, {(1, 0): 0, (0, 1): 2})
        assert p.terms == {(0, 1): 2}

    def test_negative_exponent_needs_laurent(self):
        with pytest.raises(ValueError):
            Polynomial(UV, {(-1, 0): 1})
        assert Polynomial(LAURENT_L, {(-1,): 1}).terms == {(-1,): 1}

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(UV, {(1,): 1})

    def test_add_example(self):
        uv = Polynomial(UV, {(1, 1): 1})
        assert uv + 1 == Polynomial(UV, {(1, 1): 1, (0, 0): 1})

    def test_mul_example(self):
        L = Polynomial.variable(LAURENT_L, "L")
        assert (1 + L) * (1 + L) == Polynomial(
            LAURENT_L, {(0,): 1, (1,): 2, (2,): 1})

    def test_laurent_cancellation(self):
        L = Polynomial.variable(LAURENT_L, "L")
        Linv = Polynomial.monomial(LAURENT_L, (-1,))
        assert Linv * L == Polynomial.one(LAURENT_L)

    def test_ring_mismatch_is_descriptive(self):
        with pytest.raises(RingMismatchError):
            Polynomial.one(UV) + Polynomial.one(INTEGERS)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.variable(LAURENT_L, "L") ** -1

    def test_powers_square_only_what_they_use(self, monkeypatch):
        # binary powering: popcount(n) + bitlen(n) - 2 products for n >= 1
        p = Polynomial(UV, {(0, 0): 1, (1, 0): 2, (0, 1): -1})
        powers = [Polynomial.one(UV)]
        for _ in range(9):
            powers.append(powers[-1] * p)
        calls = []
        real = Polynomial.__mul__

        def counted(self, other):
            calls.append(other)
            return real(self, other)
        monkeypatch.setattr(Polynomial, "__mul__", counted)
        for n, want in enumerate(powers):
            calls.clear()
            assert p ** n == want
            assert len(calls) == (n.bit_count() + n.bit_length() - 2 if n else 0)


class TestRingAxioms:
    @settings(max_examples=40, deadline=None)
    @given(polynomials(UV), polynomials(UV), polynomials(UV))
    def test_axioms_uv(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=30, deadline=None)
    @given(polynomials(LAURENT_L), polynomials(LAURENT_L), polynomials(LAURENT_L))
    def test_axioms_laurent(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


class TestEvaluateAtOnes:
    def test_examples(self):
        uv = Polynomial(UV, {(1, 1): 1})
        assert (uv + 1).evaluate_at_ones() == 2
        L = Polynomial.variable(LAURENT_L, "L")
        assert (L ** 4 + L ** 3).evaluate_at_ones() == 2
        assert Polynomial.zero(UV).evaluate_at_ones() == 0

    @settings(max_examples=40, deadline=None)
    @given(polynomials(UV), polynomials(UV))
    def test_ring_homomorphism(self, p, q):
        assert (p * q).evaluate_at_ones() == \
            p.evaluate_at_ones() * q.evaluate_at_ones()
        assert (p + q).evaluate_at_ones() == \
            p.evaluate_at_ones() + q.evaluate_at_ones()


class TestMonomialMap:
    def to_uv(self):
        u = Polynomial.variable(UV, "u")
        v = Polynomial.variable(UV, "v")
        return MonomialMap(LAURENT_L, UV, {"L": u * v})

    def test_power_of_image(self):
        L2 = Polynomial.monomial(LAURENT_L, (2,))
        assert self.to_uv()(L2) == Polynomial(UV, {(2, 2): 1})

    def test_affine_line_image(self):
        L = Polynomial.variable(LAURENT_L, "L")
        assert self.to_uv()(1 + L) == Polynomial(UV, {(0, 0): 1, (1, 1): 1})

    def test_laurent_image(self):
        laurent_uv = RingDescriptor(("u", "v"), laurent=True)
        u = Polynomial.variable(laurent_uv, "u")
        v = Polynomial.variable(laurent_uv, "v")
        phi = MonomialMap(LAURENT_L, laurent_uv, {"L": u * v})
        Linv = Polynomial.monomial(LAURENT_L, (-1,))
        assert phi(Linv) == Polynomial(laurent_uv, {(-1, -1): 1})

    def test_negative_image_exponent_rejected_in_polynomial_ring(self):
        Linv = Polynomial.monomial(LAURENT_L, (-1,))
        with pytest.raises(ValueError):
            self.to_uv()(Linv)

    def test_non_monomial_image_rejected(self):
        u = Polynomial.variable(UV, "u")
        with pytest.raises(ValueError):
            MonomialMap(LAURENT_L, UV, {"L": u + 1})
        with pytest.raises(ValueError):
            MonomialMap(LAURENT_L, UV, {"L": 2 * u})

    def test_missing_image_rejected(self):
        with pytest.raises(ValueError):
            MonomialMap(UV, UV, {"u": Polynomial.variable(UV, "u")})

    @settings(max_examples=40, deadline=None)
    @given(polynomials(LAURENT_L, max_degree=2), polynomials(LAURENT_L, max_degree=2))
    def test_homomorphism_and_ones_compatibility(self, p, q):
        laurent_uv = RingDescriptor(("u", "v"), laurent=True)
        u = Polynomial.variable(laurent_uv, "u")
        v = Polynomial.variable(laurent_uv, "v")
        phi = MonomialMap(LAURENT_L, laurent_uv, {"L": u * v})
        assert phi(p * q) == phi(p) * phi(q)
        assert phi(p + q) == phi(p) + phi(q)
        assert phi(p).evaluate_at_ones() == p.evaluate_at_ones()

    def test_evaluate_at_ones_map(self):
        phi = MonomialMap.evaluate_at_ones(UV)
        p = Polynomial(UV, {(1, 1): 3, (0, 0): -1})
        assert phi(p) == Polynomial.constant(INTEGERS, 2)


class TestCanonicalForms:
    def test_graded_lex_printing(self):
        p = Polynomial(UV, {(0, 0): 1, (1, 1): 1})
        assert str(p) == "u*v + 1"
        q = Polynomial(LAURENT_L, {(2,): 1, (1,): 2, (0,): 1})
        assert str(q) == "L^2 + 2*L + 1"
        assert str(Polynomial.zero(UV)) == "0"
        assert str(Polynomial.monomial(LAURENT_L, (-1,))) == "L^-1"
        r = Polynomial(UV, {(2, 0): -1, (0, 0): 1})
        assert str(r) == "-u^2 + 1"

    def test_json_round_trip(self):
        p = Polynomial(UV, {(1, 1): 10 ** 30, (0, 0): -7})
        obj = p.to_json()
        assert obj["terms"][0]["coef"] == str(10 ** 30)
        assert Polynomial.from_json(obj) == p

    def test_json_errors_name_the_path(self):
        obj = Polynomial(UV, {(1, 1): 2}).to_json()
        del obj["terms"][0]["coef"]
        with pytest.raises(ValueError, match=r"^polynomial\.terms\[0\]\.coef is missing$"):
            Polynomial.from_json(obj)
        obj["terms"][0].update(coef=2, exp=[1, 1, 1])
        with pytest.raises(ValueError, match=r"^p\.q: exponent vector"):
            Polynomial.from_json(obj, "p.q")
        obj["ring"]["vars"] = ["u", 7]
        with pytest.raises(ValueError, match=r"^polynomial\.ring\.vars: "):
            Polynomial.from_json(obj)

    def test_json_rejects_duplicate_exponents(self):
        p = Polynomial(UV, {(1, 1): 1})
        obj = p.to_json()
        obj["terms"].append(dict(obj["terms"][0]))
        with pytest.raises(ValueError):
            Polynomial.from_json(obj)


class TestProductRoute:
    """``Polynomial.__mul__`` multiplies on a folded line when the term
    counts say a line may pay (``gridops._product_lined``), else in
    dicts; both must equal the dict product."""

    RINGS = [RingDescriptor(("x",)), RingDescriptor(("L",), laurent=True),
             UV, RingDescriptor(("u", "v"), laurent=True),
             RingDescriptor(("x", "y", "z"), laurent=True)]

    @staticmethod
    def dict_product(p, q):
        acc = {}
        _accumulate_product(acc, p.terms, q.terms, p.ring.nvars)
        return {e: c for e, c in acc.items() if c}

    @staticmethod
    @st.composite
    def pairs(draw):
        ring = draw(st.sampled_from(TestProductRoute.RINGS))
        lo = -4 if ring.laurent else 0
        far = draw(st.sampled_from([4, 5000]))
        exps = st.tuples(*[st.one_of(st.integers(lo, 4), st.just(far))]
                         * ring.nvars)
        coef = st.one_of(st.integers(-5, 5), st.sampled_from(
            [2 ** 62 - 1, -(2 ** 62), 2 ** 63, -(2 ** 63), 10 ** 30]))
        size = draw(st.sampled_from([3, 30]))
        p, q = (Polynomial(ring, draw(st.dictionaries(exps, coef,
                                                      max_size=size)))
                for _ in range(2))
        return p, q

    @settings(max_examples=150, deadline=None)
    @given(pairs())
    def test_products_match_the_dict_product(self, pq):
        p, q = pq
        assert (p * q).terms == self.dict_product(p, q)

    @pytest.mark.parametrize("ring,exps", [
        (UV, (5000, 5000)), (RingDescriptor(("x", "y", "z")), (500,) * 3)],
        ids=["uv", "xyz"])
    def test_wide_sparse_products(self, ring, exps):
        # u^5000 v^5000 (or x^500 y^500 z^500) times a dense corner: a line
        # over the fold would span 10^7 cells, so the sum takes dicts
        far = Polynomial(ring, {exps: 3, (0,) * ring.nvars: -1})
        corner = Polynomial(ring, {e: 2 ** 62 + sum(e) for e in
                                   [(i, j) + (0,) * (ring.nvars - 2)
                                    for i in range(12) for j in range(12)]})
        p = far * corner
        assert p.terms == self.dict_product(far, corner)
        assert (p * p).terms == self.dict_product(p, p)

    def test_big_powers_take_the_line(self, monkeypatch):
        from motivic_power import gridops
        folds = []
        real = gridops.Fold.product.__func__

        def counted(cls, *args):
            folds.append(args[0])
            return real(cls, *args)
        monkeypatch.setattr(gridops.Fold, "product", classmethod(counted))
        x = Polynomial.variable(RingDescriptor(("x",)), "x")
        p = (1 + 2 * x) ** 200
        assert p.terms == {(k,): comb(200, k) * 2 ** k for k in range(201)}
        assert folds

    def test_sparse_wide_products_stay_in_dicts(self, monkeypatch):
        # 300 terms 8,000 apart: the term counts admit a line, but 300
        # slice-adds of a 2.4e6-cell line (or a convolution) would cost far
        # more than the 9e4 term products in dicts
        from motivic_power import gridops

        def refuse(*args):
            raise AssertionError("a sparse wide product took a line")
        x = Polynomial.variable(RingDescriptor(("x",)), "x")
        p = Polynomial(x.ring, {(8000 * i,): i % 7 - 3 or 1
                                for i in range(300)})
        assert gridops._product_lined(300, 300)
        monkeypatch.setattr(gridops, "_sum_lines", refuse)
        assert (p * p).terms == self.dict_product(p, p)

    def test_dense_products_take_the_line(self, monkeypatch):
        from motivic_power import gridops
        lines = []
        real = gridops._sum_lines

        def counted(*args):
            lines.append(args)
            return real(*args)
        monkeypatch.setattr(gridops, "_sum_lines", counted)
        rng = random.Random(7)
        p, q = (Polynomial(UV, {(i, j): rng.randint(-9, 9) or 1
                                for i in range(6) for j in range(6)})
                for _ in range(2))
        assert (p * q).terms == self.dict_product(p, q)
        assert len(lines) == 1

    def test_tiny_products_build_no_fold(self, monkeypatch):
        # L**(k-1) of the Hilbert-scheme series and the axiom samples' m*n
        from motivic_power import gridops
        from motivic_power.axioms import random_polynomial

        def refuse(*args):
            raise AssertionError("a tiny product built a fold")
        monkeypatch.setattr(gridops.Fold, "product", refuse)
        L = Polynomial.variable(LAURENT_L, "L")
        for k in range(1, 161):
            assert (L ** (k - 1)).terms == {(k - 1,): 1}
        rng = random.Random(3)
        for ring in (UV, LAURENT_L, INTEGERS):
            for _ in range(20):
                m, n = (random_polynomial(rng, ring) for _ in range(2))
                assert (m * n).terms == self.dict_product(m, n)
