import pytest
from hypothesis import given, settings

from motivic_power.rings import (
    INTEGERS,
    MonomialMap,
    Polynomial,
    RingDescriptor,
    RingMismatchError,
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
