import random

import pytest
from hypothesis import given, settings

from motivic_power.axioms import (
    random_polynomial,
    random_unital_series,
    run_axiom_suite,
    sample_failures,
)
from motivic_power.power import (
    EulerProduct,
    Kernel,
    MONOMIAL_KERNEL,
    _assemble_blocks,
    _factor_peeling,
    _monomial_base,
    _monomial_base_exact,
    assemble,
    base_series,
    exp_map,
    factor,
    log_map,
    pow_series,
    transport_check,
)
from motivic_power.rings import (
    INTEGERS,
    MonomialMap,
    Polynomial,
    RingDescriptor,
    RingMismatchError,
)
from motivic_power.series import Series

from conftest import ALL_RINGS, LAURENT_L, UV, UVW, polynomials


def S(ring, order, coeffs):
    return Series(ring, order, coeffs)


class TestBaseSeries:
    def test_geometric(self):
        assert base_series(Polynomial.one(INTEGERS), 4) == \
            S(INTEGERS, 4, [1, 1, 1, 1, 1])

    def test_zero(self):
        assert base_series(Polynomial.zero(INTEGERS), 3) == \
            Series.one(INTEGERS, 3)

    def test_monomial_exponent(self):
        uv = Polynomial(UV, {(1, 1): 1})
        B = base_series(uv, 2)
        assert B == S(UV, 2, [Polynomial.one(UV), uv, uv * uv])

    def test_literal_negative_power(self):
        assert base_series(Polynomial.constant(INTEGERS, -1), 3) == \
            S(INTEGERS, 3, [1, -1, 0, 0])

    def test_binomial_two(self):
        # squared geometric series, by the hand oracle (1,1,1,1)*(1,1,1,1)
        assert base_series(Polynomial.constant(INTEGERS, 2), 3) == \
            S(INTEGERS, 3, [1, 2, 3, 4])

    def test_binomial_matches_convolution_oracle(self):
        for m in range(0, 7):
            geo = S(INTEGERS, 6, [1] * 7)
            by_products = Series.one(INTEGERS, 6)
            for _ in range(m):
                by_products = by_products * geo
            assert base_series(Polynomial.constant(INTEGERS, m), 6) == by_products

    def test_fast_matches_exact_reference(self, ring):
        rng = random.Random(17)
        for _ in range(10):
            a = random_polynomial(rng, ring)
            assert _monomial_base(a, 7) == _monomial_base_exact(a, 7)


class TestKernelAdditivity:
    @settings(max_examples=40, deadline=None)
    @given(polynomials(UV), polynomials(UV))
    def test_additive_uv(self, a, b):
        assert base_series(a + b, 6) == base_series(a, 6) * base_series(b, 6)

    @settings(max_examples=30, deadline=None)
    @given(polynomials(LAURENT_L), polynomials(LAURENT_L))
    def test_additive_laurent(self, a, b):
        assert base_series(a + b, 6) == base_series(a, 6) * base_series(b, 6)

    def test_user_kernel_additivity_enforced(self):
        def broken(a, order):
            # drops cross terms, so not additive
            return Series(a.ring, order,
                          [Polynomial.one(a.ring)] + [a] * order)
        with pytest.raises(ValueError):
            Kernel("broken", broken, sample_rings=(INTEGERS,))

    def test_user_kernel_linear_term_enforced(self):
        def shifted(a, order):
            coeffs = [Polynomial.one(a.ring)]
            coeffs += [Polynomial.zero(a.ring)] * order
            return Series(a.ring, order, coeffs)
        with pytest.raises(ValueError):
            Kernel("shifted", shifted, sample_rings=(INTEGERS,))

    def test_wrapping_the_monomial_rule_passes_validation(self):
        Kernel("clone", _monomial_base_exact,
               sample_rings=(INTEGERS, LAURENT_L, UV))

    def test_monomial_kernel_passes_validation(self):
        # The built-in kernel is not validated at import; this is where
        # its samples over Z, Z[L^(+-)] and Z[u, v] are checked.
        for ring in (INTEGERS, LAURENT_L, UV):
            MONOMIAL_KERNEL._validate(ring, 5)


class TestFactorAssemble:
    def test_factor_geometric(self):
        geo = S(INTEGERS, 5, [1] * 6)
        assert list(factor(geo).exponents) == [
            Polynomial.constant(INTEGERS, 1)] + [Polynomial.zero(INTEGERS)] * 4

    def test_factor_one_plus_t(self):
        A = S(INTEGERS, 5, [1, 1, 0, 0, 0, 0])
        exps = [c.constant_value() for c in factor(A).exponents]
        assert exps == [1, -1, 0, 0, 0]
        # verified directly: (1,1,1,...)*(1,0,-1,0,...) telescopes to 1+t
        assert assemble(factor(A)) == A

    def test_factor_of_one(self):
        one = Series.one(INTEGERS, 4)
        assert all(b.is_zero() for b in factor(one).exponents)

    def test_assemble_examples(self):
        assert assemble(EulerProduct(INTEGERS, 4, [1, 0, 0, 0])) == \
            S(INTEGERS, 4, [1, 1, 1, 1, 1])
        assert assemble(EulerProduct(INTEGERS, 4, [1, -1, 0, 0])) == \
            S(INTEGERS, 4, [1, 1, 0, 0, 0])
        assert assemble(EulerProduct(INTEGERS, 4, [0, 0, 0, 0])) == \
            Series.one(INTEGERS, 4)

    def test_non_unital_rejected(self):
        with pytest.raises(ValueError):
            factor(S(INTEGERS, 2, [0, 1, 0]))
        with pytest.raises(ValueError):
            factor(S(INTEGERS, 2, [2, 1, 0]))

    def test_round_trips_random(self, ring):
        rng = random.Random(23)
        for _ in range(6):
            A = random_unital_series(rng, ring, 8)
            assert assemble(factor(A)) == A
            E = EulerProduct(ring, 8,
                             [random_polynomial(rng, ring) for _ in range(8)])
            assert factor(assemble(E)) == E

    def test_fast_and_peeling_agree(self, ring):
        rng = random.Random(29)
        for _ in range(6):
            A = random_unital_series(rng, ring, 8)
            peeled = _factor_peeling(A, MONOMIAL_KERNEL)
            assert log_map(A) == peeled
            assert exp_map(peeled, ring=ring) == \
                _assemble_blocks(ring, 8, peeled, MONOMIAL_KERNEL)


class TestPow:
    def test_cube_of_one_plus_t(self):
        A = S(INTEGERS, 3, [1, 1, 0, 0])
        assert pow_series(A, Polynomial.constant(INTEGERS, 3)) == \
            S(INTEGERS, 3, [1, 3, 3, 1])

    def test_power_zero(self):
        rng = random.Random(31)
        for ring in ALL_RINGS:
            A = random_unital_series(rng, ring, 6)
            assert pow_series(A, Polynomial.zero(ring)) == Series.one(ring, 6)

    def test_polynomial_exponent_hand_expansion(self):
        # (1+t)^u = (1-t)^{-u} (1-t^2)^{+u} = (1+ut+u^2t^2)(1-ut^2)
        ring = RingDescriptor(("u",))
        u = Polynomial.variable(ring, "u")
        A = S(ring, 2, [Polynomial.one(ring), Polynomial.one(ring),
                        Polynomial.zero(ring)])
        assert pow_series(A, u) == S(ring, 2,
                                     [Polynomial.one(ring), u, u * u - u])

    def test_matches_finite_oracle(self):
        A = S(INTEGERS, 3, [1, 2, 0, 0])
        P = pow_series(A, Polynomial.constant(INTEGERS, 3))
        assert [c.constant_value() for c in P.coefficients] == [1, 6, 12, 8]

    def test_integer_powers_match_repeated_multiplication(self, ring):
        rng = random.Random(37)
        for _ in range(4):
            A = random_unital_series(rng, ring, 6)
            for m in (0, 1, 2, 3):
                assert pow_series(A, Polynomial.constant(ring, m)) == A ** m
            inverse_cube = pow_series(A, Polynomial.constant(ring, -3))
            assert inverse_cube == (A ** 3).inverse()

    def test_ring_mismatch(self):
        A = Series.one(UV, 3)
        with pytest.raises(RingMismatchError):
            pow_series(A, Polynomial.one(INTEGERS))

    def test_non_unital_rejected(self):
        with pytest.raises(ValueError):
            pow_series(S(INTEGERS, 1, [0, 1]), Polynomial.one(INTEGERS))

    def test_effectivity_over_integers(self):
        rng = random.Random(41)
        for _ in range(60):
            A = random_unital_series(rng, INTEGERS, 8, effective=True)
            m = Polynomial.constant(INTEGERS, rng.randint(0, 5))
            assert pow_series(A, m).is_effective()


class TestAxiomSuite:
    def test_all_properties_hold_on_every_ring(self, ring):
        report = run_axiom_suite(ring, order=6, samples=8, seed=101)
        assert report.ok, report.failures

    def test_deterministic_per_seed(self):
        a = run_axiom_suite(UV, order=5, samples=3, seed=5)
        b = run_axiom_suite(UV, order=5, samples=3, seed=5)
        assert a.failures == b.failures

    def test_sample_failures_match_suite(self):
        # the suite is the concatenation of independent per-index checks
        report = run_axiom_suite(UV, order=5, samples=4, seed=9)
        stitched = []
        for i in range(4):
            stitched.extend(sample_failures(("u", "v"), False, 5, 9, i))
        assert report.failures == stitched


class TestExpLog:
    def test_exp_of_t(self):
        assert exp_map([Polynomial.one(INTEGERS)], order=4, ring=INTEGERS) == \
            S(INTEGERS, 4, [1, 1, 1, 1, 1])

    def test_exp_of_zero(self):
        assert exp_map([], order=3, ring=INTEGERS) == Series.one(INTEGERS, 3)

    def test_exp_of_monomial(self):
        uv = Polynomial(UV, {(1, 1): 1})
        E = exp_map([uv], order=3, ring=UV)
        assert E.coefficient(2) == uv * uv
        assert E.coefficient(3) == uv * uv * uv

    def test_log_examples(self):
        geo = S(INTEGERS, 4, [1, 1, 1, 1, 1])
        assert [b.constant_value() for b in log_map(geo)] == [1, 0, 0, 0]
        A = S(INTEGERS, 4, [1, 1, 0, 0, 0])
        assert [b.constant_value() for b in log_map(A)] == [1, -1, 0, 0]

    def test_round_trips(self, ring):
        rng = random.Random(43)
        for _ in range(5):
            P = [random_polynomial(rng, ring) for _ in range(7)]
            assert log_map(exp_map(P, order=7, ring=ring)) == P
            A = random_unital_series(rng, ring, 7)
            assert exp_map(log_map(A), order=7, ring=ring) == A


class TestTransport:
    def test_evaluate_at_ones(self):
        rng = random.Random(47)
        phi = MonomialMap.evaluate_at_ones(UV)
        for _ in range(6):
            A = random_unital_series(rng, UV, 6)
            m = random_polynomial(rng, UV)
            assert transport_check(phi, A, m)

    def test_l_to_uv(self):
        rng = random.Random(53)
        laurent_uv = RingDescriptor(("u", "v"), laurent=True)
        image = Polynomial.variable(laurent_uv, "u") * \
            Polynomial.variable(laurent_uv, "v")
        phi = MonomialMap(LAURENT_L, laurent_uv, {"L": image})
        for _ in range(6):
            A = random_unital_series(rng, LAURENT_L, 6)
            m = random_polynomial(rng, LAURENT_L)
            assert transport_check(phi, A, m)

    def test_identity(self):
        rng = random.Random(59)
        phi = MonomialMap.identity(UV)
        A = random_unital_series(rng, UV, 5)
        assert transport_check(phi, A, random_polynomial(rng, UV))

    def test_general_substitution_rejected(self):
        A = Series.one(UV, 3)
        with pytest.raises(TypeError):
            transport_check(lambda p: p, A, Polynomial.one(UV))


class TestEulerProductType:
    def test_round_trip_invariant(self, ring):
        rng = random.Random(61)
        E = EulerProduct(ring, 6,
                         [random_polynomial(rng, ring) for _ in range(6)])
        assert factor(assemble(E)) == E

    def test_json_round_trip(self):
        rng = random.Random(67)
        E = EulerProduct(UV, 4,
                         [random_polynomial(rng, UV) for _ in range(4)])
        assert EulerProduct.from_json(E.to_json()) == E

    def test_json_empty_needs_ring(self):
        empty = EulerProduct(UV, 0, [])
        with pytest.raises(ValueError):
            EulerProduct.from_json(empty.to_json())
        assert EulerProduct.from_json(empty.to_json(), ring=UV) == empty

    def test_length_validation(self):
        with pytest.raises(ValueError):
            EulerProduct(INTEGERS, 3, [1, 2])


class TestFactorCacheStaysEmpty:
    """Building a series never seeds its factorization.

    Only the punctual surface series carries known exponents; everything
    else must go through the reverse recurrence when factored, which is
    what the factor/assemble round trips test.
    """

    def test_assemble_exp_and_pow_leave_the_cache_empty(self, ring):
        rng = random.Random(71)
        E = EulerProduct(ring, 6, [random_polynomial(rng, ring) for _ in range(6)])
        assert not assemble(E)._factor_cache
        assert not exp_map(list(E.exponents), order=6, ring=ring)._factor_cache
        A = random_unital_series(rng, ring, 6)
        powered = pow_series(A, random_polynomial(rng, ring))
        assert not powered._factor_cache


class TestThreeVariables:
    """Z[u, v, w] runs the same recurrences, on term-map slots.

    Inputs in u and v alone must give the Z[u, v] results pushed into
    the larger ring; an input in w must keep the laws.  Neither may
    reach the dict reference routes, peeling or the dict recurrence.
    """

    @pytest.fixture
    def dict_route(self, monkeypatch):
        from motivic_power import power
        calls = []
        for name in ("_factor_peeling", "_monomial_base_exact"):
            def counted(*args, _fn=getattr(power, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(power, name, counted)
        return calls

    def test_uv_inputs_match_the_slot_route(self, dict_route):
        to_uvw = MonomialMap(UV, UVW, {name: Polynomial.variable(UVW, name)
                                       for name in UV.variables})

        def lift(S):
            return S.map_coefficients(to_uvw, UVW)

        rng = random.Random(37)
        order = 5
        A = random_unital_series(rng, UV, order)
        B = random_unital_series(rng, UV, order)
        a, m = random_polynomial(rng, UV), random_polynomial(rng, UV)
        E = EulerProduct(UV, order, [random_polynomial(rng, UV)
                                     for _ in range(order)])
        want = (base_series(a, order), factor(A), assemble(E),
                pow_series(A, m), A * B)
        assert dict_route == []
        assert base_series(to_uvw(a), order) == lift(want[0])
        assert factor(lift(A)) == EulerProduct(
            UVW, order, [to_uvw(b) for b in want[1].exponents])
        assert assemble(EulerProduct(
            UVW, order, [to_uvw(b) for b in E.exponents])) == lift(want[2])
        assert pow_series(lift(A), to_uvw(m)) == lift(want[3])
        assert lift(A) * lift(B) == lift(want[4])
        assert dict_route == []

    def test_laws_with_w(self, dict_route):
        A = random_unital_series(random.Random(41), UVW, 4)
        assert any(e[2] for c in A.coefficients for e in c.terms)
        assert assemble(factor(A)) == A
        assert pow_series(A, 3) == A * A * A
        assert pow_series(A, -1) * A == Series.one(UVW, 4)
        assert dict_route == []
