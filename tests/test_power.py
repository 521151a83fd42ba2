import inspect
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motivic_power as mp
from motivic_power import gridops, power
from motivic_power.axioms import (
    _exponent_pool,
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
    _digit_width,
    _euler_product,
    _monomial_base_exact,
    _multiplies_out,
    _solve_forward,
    assemble,
    base_series,
    exp_map,
    factor,
    log_map,
    pow_series,
    transport_check,
)
from motivic_power.gridops import Fold
from motivic_power.rings import (
    INTEGERS,
    MonomialMap,
    Polynomial,
    RingDescriptor,
    RingMismatchError,
)
from motivic_power.series import Series

from conftest import ALL_RINGS, LAURENT_L, UV, UVW, polynomials, row_maps


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

    def test_factor_refuses_every_other_kernel(self):
        A = S(UV, 3, [1, Polynomial.variable(UV, "u"), 2, 0])
        for kernel in (Kernel("dict", _monomial_base_exact),
                       Kernel("monomial", _monomial_base)):
            with pytest.raises(ValueError, match="only the monomial kernel"):
                factor(A, kernel)
        assert not A._factor_cache
        cached = factor(A, MONOMIAL_KERNEL)
        assert A._factor_cache == {MONOMIAL_KERNEL: cached}
        assert factor(A) is cached
        assert list(cached.exponents) == _factor_peeling(
            A, Kernel("dict", _monomial_base_exact))

    @pytest.mark.parametrize("fn", [base_series, assemble, pow_series,
                                    exp_map, log_map, transport_check])
    def test_one_power_structure(self, fn):
        assert "kernel" not in inspect.signature(fn).parameters

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


class TestConfigurationSpaces:
    """sum_n [Conf_n X] t^n = (1+t)^[X], the unordered configuration
    spaces of X, is one power of 1 + t."""

    @staticmethod
    def conf(X, order):
        return pow_series(S(X.ring, order, [1, 1] + [0] * (order - 1)), X)

    @pytest.mark.parametrize("order", [8, 40])
    def test_points_on_the_affine_line(self, order):
        # [Conf_n A^1] = L^n - L^(n-1) for n >= 2
        L = Polynomial.variable(LAURENT_L, "L")
        got = list(self.conf(L, order).coefficients)
        assert got[:2] == [1, L]
        assert got[2:] == [L ** n - L ** (n - 1) for n in range(2, order + 1)]

    @pytest.mark.parametrize("order", [8, 40])
    def test_points_on_the_plane_count_by_euler_characteristic(self, order):
        # at L = 1 the class of Conf_n P^2 is chi = binom(3, n)
        L = Polynomial.variable(LAURENT_L, "L")
        got = self.conf(L ** 2 + L + 1, order).coefficients
        assert [sum(p.terms.values()) for p in got] == \
            [math.comb(3, n) for n in range(order + 1)]


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


class TestExponentPool:
    @staticmethod
    def product_and_filter(ring, max_degree):
        """Every vector of the box, in lexicographic order, kept when its
        absolute degree is within max_degree."""
        lo = -max_degree if ring.laurent else 0
        box = itertools.product(range(lo, max_degree + 1), repeat=ring.nvars)
        return [e for e in box if sum(map(abs, e)) <= max_degree]

    @pytest.mark.parametrize("laurent", [False, True])
    def test_equals_the_box_filtered_in_order(self, laurent):
        for nvars in range(6):
            ring = RingDescriptor(tuple("x%d" % i for i in range(nvars)),
                                  laurent)
            for max_degree in range(4):
                assert list(_exponent_pool(ring, max_degree)) == \
                    self.product_and_filter(ring, max_degree)

    def test_seeded_draws_are_unchanged(self):
        # the draws of seed 7 before the pool was built by budget
        for ring, drawn in [
                (UV, "-3*u^2 - 3*u*v + 2*u - 2*v - 1"),
                (LAURENT_L, "-3*L^2 + 2*L - 2*L^-1 - L^-2"),
                (INTEGERS, "-1")]:
            assert str(random_polynomial(random.Random(7), ring)) == drawn

    def test_many_variables(self):
        ring = RingDescriptor(tuple("x%d" % i for i in range(40)), True)
        # 1 + 2n + 2n + 4 C(n, 2) vectors of absolute degree <= 2
        assert len(_exponent_pool(ring, 2)) == 1 + 4 * 40 + 2 * 40 * 39
        assert _exponent_pool(ring, 2) is _exponent_pool(ring, 2)


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


class TestSharedExponentKeys:
    """A decoded series holds one tuple object per exponent vector."""

    @staticmethod
    def assert_shared(series):
        first = {}
        shared = 0
        for c in series.coefficients:
            for key in c.terms:
                if key in first:
                    assert key is first[key]
                    shared += 1
                else:
                    first[key] = key
        assert shared

    def test_coefficients_share_exponent_tuples(self):
        # the K3 diamond: e = 1 + u^2 + v^2 + 20uv + u^2 v^2
        u, v = (Polynomial.variable(UV, x) for x in ("u", "v"))
        e = 1 + u ** 2 + v ** 2 + 20 * u * v + u ** 2 * v ** 2
        self.assert_shared(mp.hodge_deligne_series(mp.VarietyClass(e, 2), 8))

    def test_axioms_shaped_powers_and_products_share_exponent_tuples(self):
        # Z[u, v] at order 10, as the axiom samples draw them
        rng = random.Random(11)
        A = random_unital_series(rng, UV, 10)
        B = random_unital_series(rng, UV, 10)
        m = random_polynomial(rng, UV)
        self.assert_shared(pow_series(A, m))
        self.assert_shared(A * B)


class TestWideSparseClasses:
    @pytest.mark.parametrize("ring,exps", [
        (UV, (5000, 5000)), (UVW, (500, 500, 500))], ids=["uv", "xyz"])
    def test_wide_sparse_classes_stay_small(self, ring, exps):
        # (1-t)^(-a) for a = 1 + one far monomial: every coefficient has at
        # most three terms, but a dense box of the first would hold 10001^2
        # cells (800 MB), and the fold's line of either 5*10^7 or more
        a = Polynomial(ring, {exps: 1, (0,) * ring.nvars: 1})
        tracemalloc.start()
        try:
            got = base_series(a, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == _monomial_base_exact(a, 2)
        assert peak < 64 * 2 ** 20


def recurrence_terms(b, order):
    """The forward recurrence's f_0..f_N for the exponent term maps b."""
    slots = [gridops.Slot.wrap(t) for t in b]
    return [x.to_terms() for x in _solve_forward(slots, order)]


class TestEulerProductPath:
    """The factor-by-factor product is == to the forward recurrence.

    Both are called directly, on the same exponent term maps, in one
    variable; over Z (``nvars`` 0) every exponent folds to 0.
    """

    def same(self, b, order, nvars=1):
        b = [Fold(nvars).slot(t).to_terms() for t in b]
        got = row_maps(_euler_product(b, order))
        assert got == recurrence_terms(b, order)
        return got

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_signed_exponents(self, data):
        nvars = data.draw(st.integers(0, 1))
        order = data.draw(st.integers(0, 20))
        exps = st.tuples(st.integers(-12, 12)) if nvars else st.just(())
        coefs = (st.integers(-4, 4) | st.integers(-2 ** 40, 2 ** 40)).filter(bool)
        b = data.draw(st.lists(st.dictionaries(exps, coefs, max_size=3),
                               min_size=order, max_size=order))
        self.same(b, order, nvars)

    def test_laurent_offsets(self):
        # lower rate min(-3, floor(-5/2), floor(-1/3)) = -3
        b = [{(-3,): 2, (1,): -1}, {(-5,): 1, (0,): 3}, {(-1,): -2}, {},
             {(4,): 1}, {(-7,): -1}, {}, {(2,): 2}]
        got = self.same(b, 8)
        assert min(got[8]) == -24
        assert max(got[8]) <= 8  # the upper rate is 1/1

    def test_binomial_branch(self):
        # every factor has |c| > N/i: 7 and -9 at i = 1, -5 at i = 3,
        # 2 at i = 4
        b = [{(0,): 7, (2,): -9}, {}, {(1,): -5}, {(-1,): 2}, {}, {}]
        self.same(b, 6)
        self.same([{(): 7}, {(): -9}, {(): -5}, {(): 2}, {}, {}], 6, 0)

    def test_origin_moves_down_for_a_later_factor(self):
        # factors run from i = N down: i = 5 and 3 fill rows from origins
        # 10 and 6 up, then i = 1 with e = -4 lowers every row's origin
        b = [{(-4,): 1, (2,): 1}, {}, {(6,): 1}, {}, {(10,): 2}, {}, {}, {}]
        got = self.same(b, 8)
        for n in range(1, 9):
            assert min(got[n]) == -4 * n
        assert max(got[8]) == 16  # u^2 per t in every factor

    def test_row_cancels_to_zero_and_refills(self):
        # after i = 2, f_2 = -u^2; the first term of i = 1 adds u * u to
        # it, so the row is 0 before the second term (u^-3) refills it
        # from a lower origin
        b = [{1: 1, -3: 1}, {2: -1}, {}]
        got = row_maps(_euler_product(b, 3))
        assert got == recurrence_terms(b, 3)
        assert got[2] == {-2: 1, -6: 1}
        # (1 - u^2 t^2) / (1 - u t) = 1 + u t: rows 2..4 end at 0
        b = [{1: 1}, {2: -1}, {}, {}]
        got = row_maps(_euler_product(b, 4))
        assert got == recurrence_terms(b, 4)
        assert got == [{0: 1}, {1: 1}, {}, {}, {}]

    def test_binomial_branch_across_origins(self):
        # rows 5 and 6 hold u^4 and u^-5 when the binomial factors i = 3,
        # 2 and 1 (|c| > N/i) reach them from rows of other origins
        b = [{(-1,): 8, (2,): -7}, {(3,): -9}, {(-2,): 7}, {}, {(4,): 1},
             {(-5,): 1}]
        got = self.same(b, 6)
        assert min(got[6]) == -6

    @pytest.mark.parametrize("e", [
        {(0, 0): 1, (1, 1): 1, (2, 2): 1},
        {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1},
    ], ids=["P2", "K3"])
    def test_folded_hodge_shapes(self, e):
        b = [x.to_terms() for x in folded(surface_exponents(e, 12), 12, 2)]
        assert row_maps(_euler_product(b, 12)) == recurrence_terms(b, 12)

    @pytest.mark.parametrize("b,width", [
        ([{(0,): 2 ** 30}, {}], 64),
        ([{(1,): 2 ** 32 + 1, (-1,): -(2 ** 31)}, {(0,): 5}], 72),
        ([{(0,): 2 ** 63 - 1}], 64),
        ([{(0,): -(2 ** 63)}], 72),  # 64 bits of magnitude need the sign bit
    ])
    def test_widths_and_the_int64_edge(self, b, width):
        order = len(b)
        assert _digit_width(b, order) == width
        got = self.same(b, order)
        top = max(abs(c) for t in got for c in t.values())
        assert (top < 2 ** 62) == (order == 2 and width == 64)

    def test_hilbert_shape_past_int64(self):
        order = 120
        b = [{(i - 1,): 1, (i,): 3, (i + 1,): 1} for i in range(1, order + 1)]
        assert _digit_width(b, order) >= 72
        got = self.same(b, order)
        assert max(abs(c) for t in got for c in t.values()) > 2 ** 62

    @pytest.mark.parametrize("nvars", [0, 1])
    def test_orders_zero_and_one(self, nvars):
        one = (0,) * nvars
        assert self.same([], 0, nvars) == [{0: 1}]
        assert self.same([{one: 3}], 1, nvars) == [{0: 1}, {0: 3}]
        if nvars:
            assert self.same([{(-2,): -1}], 1) == [{0: 1}, {-2: -1}]

    @pytest.mark.parametrize("nvars", [0, 1])
    def test_all_zero_exponents(self, nvars):
        assert self.same([{}] * 5, 5, nvars) == [{0: 1}] + [{}] * 5


X_RING = RingDescriptor(("x",))


def hilbert_exponents(a, order):
    """b_i = L^(i-1) (L^2 + a L + 1): the Hilbert-scheme series' exponents."""
    return [{(i - 1,): 1, (i,): a, (i + 1,): 1} for i in range(1, order + 1)]


def surface_exponents(e, order):
    """b_i = (uv)^(i-1) e: the exponents of a Hodge-Deligne series."""
    return [{(x + i - 1, y + i - 1): c for (x, y), c in e.items()}
            for i in range(1, order + 1)]


def folded(b, order, nvars=1):
    """The exponent term maps b as slots under their solve's fold."""
    fold = Fold.graded(nvars, order, b)
    return [fold.slot(t) for t in b]


class TestProductRouting:
    def test_hilbert_shapes_take_the_product(self):
        for order in (40, 80, 160):
            # the punctual surface series, and [X] = L^2 + L + 1
            assert _multiplies_out(
                folded([{(i - 1,): 1} for i in range(1, order + 1)], order),
                order)
            assert _multiplies_out(folded(hilbert_exponents(1, order), order),
                                   order)
        for a in (2, 3):  # rows/rec 0.26 and 0.30 at the benchmark's order
            assert _multiplies_out(folded(hilbert_exponents(a, 160), 160), 160)

    def test_hilbert_series_runs_no_recurrence(self, monkeypatch):
        L = Polynomial.variable(LAURENT_L, "L")
        X = mp.VarietyClass(L ** 2 + L + 1, 2)
        want = mp.global_series(X, mp.local_series(2, 40), 40)
        monkeypatch.setattr(power, "_solve_forward", lambda *args: pytest.fail(
            "the forward recurrence ran"))
        assert mp.global_series(X, mp.local_series(2, 40), 40) == want

    def test_folded_surfaces_route_by_the_same_rule(self):
        # folded by u -> z^81, v -> z, the diamonds' exponents pass
        # 1.5 * rows <= rec like a one-variable class: P^2 at rows/rec
        # 0.29, the abelian diamond at 0.44 and K3 at 0.54, each faster
        # on the product; h^{1,1} = 40 (0.80, a tie) stays
        p2 = {(0, 0): 1, (1, 1): 1, (2, 2): 1}
        k3 = {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1}
        abelian = {(0, 0): 1, (1, 0): -2, (0, 1): -2, (2, 0): 1, (0, 2): 1,
                   (1, 1): 4, (2, 1): -2, (1, 2): -2, (2, 2): 1}
        for e in (p2, k3, abelian):
            assert _multiplies_out(folded(surface_exponents(e, 40), 40, 2),
                                   40)
        wide = {(0, 0): 1, (1, 1): 40, (2, 2): 1}
        assert not _multiplies_out(
            folded(surface_exponents(wide, 40), 40, 2), 40)

    def test_sparse_exponents_stay_on_the_recurrence(self):
        # 1 + u + u^5000, whose indices share no factor: rows/rec alone
        # would multiply out, into packed coefficients 5000 digits apart
        # per step
        b = [{(0,): 1, (1,): 1, (5000,): 1}] + [{}] * 39
        assert not _multiplies_out(folded(b, 40), 40)

    def test_a_shared_exponent_factor_folds_out(self):
        # 1 + u^5000: every index is a multiple of g = 5000, so the solve
        # runs in y = u^5000 on 1 + y, dense enough to multiply out
        b = [{(0,): 1, (5000,): 1}] + [{}] * 39
        fold = Fold.graded(1, 40, b)
        assert fold.gcd == 5000
        slots = [fold.slot(t) for t in b]
        assert slots[0].to_terms() == {0: 1, 1: 1}
        assert _multiplies_out(slots, 40)
        a = Polynomial(X_RING, b[0])
        assert base_series(a, 40) == _monomial_base_exact(a, 40)

    @staticmethod
    def two_factors(e, d, order):
        """(1 - x^e t)^(-1) (1 - x^d t^2)^(-1): t^n has x^(ek + dj) for
        every k + 2j = n."""
        return Series(X_RING, order, [
            Polynomial(X_RING, {(e * k + d * ((n - k) // 2),): 1
                                for k in range(n % 2, n + 1, 2)})
            for n in range(order + 1)])

    @pytest.mark.parametrize("e", [1000, 100000])
    def test_wide_rows_stay_on_the_recurrence(self, monkeypatch, e):
        # each b_i is one line, but the rows of x^e t and x t^2, whose
        # indices share no factor, span up to n*e + 1 digits: 2e7 and
        # more in all at order 200, past the cap
        x = Polynomial.variable(X_RING, "x")
        monkeypatch.setattr(power, "_euler_product", lambda *args: pytest.fail(
            "the product ran"))
        assert exp_map([x ** e, x], order=200) == self.two_factors(e, 1, 200)

    @pytest.mark.parametrize("e", [1000, 100000])
    def test_wide_rows_of_one_factor_take_the_product(self, monkeypatch, e):
        # x^e t and t^2: every index is a multiple of e, so in y = x^e row
        # f_n spans n + 1 digits, and the product runs
        x = Polynomial.variable(X_RING, "x")
        seen = []
        real = power._euler_product

        def recorded(b, order):
            seen.append(b)
            return real(b, order)

        monkeypatch.setattr(power, "_euler_product", recorded)
        got = exp_map([x ** e, 1], order=200)
        assert seen and seen[0][0] == {1: 1}
        assert got == self.two_factors(e, 0, 200)
        monkeypatch.setattr(power, "_multiplies_out", lambda b, order: False)
        assert got == exp_map([x ** e, 1], order=200)

    def test_rows_within_the_cap_take_the_product(self, monkeypatch):
        x = Polynomial.variable(X_RING, "x")
        seen = []
        real = power._euler_product

        def recorded(b, order):
            seen.append(b)
            return real(b, order)

        monkeypatch.setattr(power, "_euler_product", recorded)
        got = exp_map([x ** 100, 1], order=200)
        assert seen
        monkeypatch.setattr(power, "_multiplies_out", lambda b, order: False)
        assert got == exp_map([x ** 100, 1], order=200)

    def test_axioms_shaped_samples_stay_on_the_recurrence(self, monkeypatch):
        # the axioms-small shapes: A and m with coefficients in [-3, 3]
        # on exponents of degree <= 2, at order 10
        rng = random.Random(23)
        ring = LAURENT_L
        for _ in range(20):
            A = random_unital_series(rng, ring, 10)
            m = random_polynomial(rng, ring)
            if not m.terms:
                continue
            b = [(p * m).terms for p in factor(A).exponents]
            assert not _multiplies_out(folded(b, 10), 10)
        # the recurrence gets int64 arrays, as before
        seen = []
        real = power._solve_forward

        def recorded(b, order):
            seen.extend(b)
            return real(b, order)

        monkeypatch.setattr(power, "_solve_forward", recorded)
        pow_series(A, m)
        assert seen and all(s.lined for s in seen)

    def test_passes_count_and_route_as_the_per_term_count(self, monkeypatch):
        # _passes reads an array slot in one numpy pass and a term map from
        # its coefficients; both give the per-term count over Slot.spread(),
        # and _multiplies_out routes the hodge diamonds, the Hilbert shape
        # and axiom-shaped samples as it does on that count
        def spread_passes(x, k):
            return sum(min(abs(c), k) for _, c in x.spread())

        diamonds = [
            {(0, 0): 1, (1, 1): 1, (2, 2): 1},
            {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1},
            {(0, 0): 1, (1, 0): -2, (0, 1): -2, (2, 0): 1, (0, 2): 1,
             (1, 1): 4, (2, 1): -2, (1, 2): -2, (2, 2): 1},
            {(0, 0): 1, (1, 1): 40, (2, 2): 1},
        ]
        cases = [(folded(surface_exponents(e, n), n, 2), n)
                 for e in diamonds for n in (12, 40)]
        cases.append((folded(hilbert_exponents(3, 40), 40), 40))
        cases.append(([gridops.Slot.wrap({0: 2 ** 70, 1: -3})], 1))
        rng = random.Random(37)
        for ring, nvars in ((LAURENT_L, 1), (UV, 2)):
            for _ in range(10):
                A = random_unital_series(rng, ring, 10)
                m = random_polynomial(rng, ring)
                b = [(p * m).terms for p in factor(A).exponents]
                cases.append((folded(b, 10, nvars), 10))
        kinds = set()
        for b, order in cases:
            for i, x in enumerate(b, start=1):
                kinds.add(x.terms is None)
                for k in (order // i, 1, 2 ** 40):
                    assert power._passes(x, k) == spread_passes(x, k)
        assert kinds == {True, False}  # arrays and term maps both read
        routes = [_multiplies_out(b, order) for b, order in cases]
        assert True in routes and False in routes
        monkeypatch.setattr(power, "_passes", spread_passes)
        assert [_multiplies_out(b, order) for b, order in cases] == routes

    @pytest.mark.parametrize("order", [10, 40])
    def test_axioms_shaped_integer_powers_take_the_product(self, order,
                                                           monkeypatch):
        # over Z every exponent folds to 0, and the product always runs
        rng = random.Random(29)
        seen = []
        real = power._euler_product

        def recorded(b, order):
            seen.append(b)
            return real(b, order)

        monkeypatch.setattr(power, "_euler_product", recorded)
        monkeypatch.setattr(power, "_solve_forward", lambda *args: pytest.fail(
            "the forward recurrence ran"))
        for _ in range(10):
            A = random_unital_series(rng, INTEGERS, order)
            m = random_polynomial(rng, INTEGERS)
            pow_series(A, m)
        assert len(seen) == 10

    @pytest.mark.parametrize("order", [10, 40])
    def test_integer_product_matches_the_references(self, order):
        rng = random.Random(31)
        for _ in range(10):
            A = random_unital_series(rng, INTEGERS, order)
            m = random_polynomial(rng, INTEGERS)
            b = [Fold(0).slot((p * m).terms).to_terms()
                 for p in factor(A).exponents]
            assert row_maps(_euler_product(b, order)) == \
                recurrence_terms(b, order)
            a = random_polynomial(rng, INTEGERS)
            assert base_series(a, order) == _monomial_base_exact(a, order)
