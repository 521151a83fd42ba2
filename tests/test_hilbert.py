import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_power import hilbert, localdata
from motivic_power.hilbert import (
    LocalHilbertData,
    VarietyClass,
    _direct_affine_series,
    affine_consistency_check,
    euler_specialization,
    global_series,
    hodge_deligne_series,
    kapranov_zeta,
    local_series,
)
from motivic_power.localdata import MOTIVIC_RING
from motivic_power.oracles import partition_count, punctual_surface_class_oracle
from motivic_power.power import (
    MONOMIAL_KERNEL,
    EulerProduct,
    base_series,
    exp_map,
    factor,
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

UV = RingDescriptor(("u", "v"))
L = Polynomial.variable(MOTIVIC_RING, "L")


class TestLocalSeries:
    def test_curve_is_all_ones(self):
        data = local_series(1, 3)
        assert data.series == Series(MOTIVIC_RING, 3, [1, 1, 1, 1])

    def test_surface_small_orders(self):
        data = local_series(2, 3)
        assert data.series.coefficient(0) == 1
        assert data.series.coefficient(1) == 1
        assert data.series.coefficient(2) == 1 + L
        assert data.series.coefficient(3) == 1 + L + L ** 2

    def test_surface_matches_partition_oracle(self):
        data = local_series(2, 10)
        for n in range(1, 11):
            assert data.series.coefficient(n) == punctual_surface_class_oracle(n)

    def test_surface_at_one_counts_partitions(self):
        data = local_series(2, 8)
        for n, c in enumerate(data.series.coefficients):
            assert c.evaluate_at_ones() == partition_count(n)

    def test_bundled_series_is_effective(self):
        for d in (1, 2):
            assert local_series(d, 10).series.is_effective()

    def test_dimension_three_needs_data(self):
        with pytest.raises(ValueError, match="no closed form"):
            local_series(3, 4)

    @pytest.mark.parametrize("dimension", [0, -1, 1.5, True])
    def test_dimension_must_be_a_positive_integer(self, dimension):
        with pytest.raises(ValueError,
                           match="^dimension must be a positive integer$"):
            local_series(dimension, 3)

    @pytest.mark.parametrize("order", [0, 1, 40])
    def test_curve_carries_its_exponents(self, order):
        series = local_series(1, order).series
        assert series._factor_cache[MONOMIAL_KERNEL] == EulerProduct(
            MOTIVIC_RING, order, ([1] + [0] * (order - 1))[:order])

    def test_user_data_pass_through(self):
        series = Series(MOTIVIC_RING, 4, [1, 1, L, L ** 2, L ** 3])
        data = LocalHilbertData(3, series)
        out = local_series(3, 3, user_data=data)
        assert out.series == series.truncate(3)

    def test_user_data_dimension_mismatch(self):
        data = LocalHilbertData(3, Series(MOTIVIC_RING, 2, [1, 1, L]))
        with pytest.raises(ValueError, match="dimension"):
            local_series(4, 2, user_data=data)

    def test_user_data_too_short(self):
        data = LocalHilbertData(3, Series(MOTIVIC_RING, 2, [1, 1, L]))
        with pytest.raises(ValueError, match="order"):
            local_series(3, 5, user_data=data)


class TestLocalDataInvariants:
    def test_constant_term_must_be_one(self):
        with pytest.raises(ValueError):
            LocalHilbertData(2, Series(MOTIVIC_RING, 1, [0, 1]))

    def test_degree_one_must_be_single_point(self):
        with pytest.raises(ValueError, match="reduced point"):
            LocalHilbertData(2, Series(MOTIVIC_RING, 1, [1, L]))

    def test_curve_data_must_be_all_ones(self):
        with pytest.raises(ValueError, match="all ones"):
            LocalHilbertData(1, Series(MOTIVIC_RING, 2, [1, 1, L]))

    def test_json_round_trip_keeps_source(self):
        data = local_series(2, 4)
        payload = data.to_json(source="unit test payload")
        assert payload["source"] == "unit test payload"
        back = LocalHilbertData.from_json(payload)
        assert back.dimension == 2 and back.series == data.series

    def test_json_requires_source(self):
        payload = local_series(1, 2).to_json()
        del payload["source"]
        with pytest.raises(ValueError, match="source"):
            LocalHilbertData.from_json(payload)
        payload["source"] = 5
        with pytest.raises(ValueError, match="^local data files must carry "
                                             "a 'source' string$"):
            LocalHilbertData.from_json(payload)


class TestBundledDataFile:
    def test_file_matches_regeneration(self):
        on_disk = localdata.SURFACE_FILE.read_text(encoding="utf-8")
        assert on_disk == localdata.render_payload(localdata.surface_payload())

    def test_loaded_series_matches_oracle_prefix(self):
        bundled = localdata.load_surface_series()
        assert bundled.order == localdata.SURFACE_ORDER
        for n in range(1, 13):
            assert bundled.coefficient(n) == punctual_surface_class_oracle(n)


class TestGlobalSeries:
    def test_projective_line(self):
        X = VarietyClass(1 + L, 1)
        H = global_series(X, local_series(1, 5), 5)
        for n in range(6):
            assert H.coefficient(n) == Polynomial(
                MOTIVIC_RING, {(j,): 1 for j in range(n + 1)})

    def test_affine_plane_degree_two(self):
        X = VarietyClass(L ** 2, 2)
        H = global_series(X, local_series(2, 2), 2)
        assert H.coefficient(2) == L ** 4 + L ** 3

    def test_zero_class(self):
        X = VarietyClass(Polynomial.zero(MOTIVIC_RING), 2)
        assert global_series(X, local_series(2, 4), 4) == \
            Series.one(MOTIVIC_RING, 4)

    def test_ring_mismatch(self):
        X = VarietyClass(Polynomial.one(UV), 2)
        with pytest.raises(RingMismatchError):
            global_series(X, local_series(2, 3), 3)

    def test_dimension_mismatch(self):
        X = VarietyClass(L, 1)
        with pytest.raises(ValueError, match="dimension"):
            global_series(X, local_series(2, 3), 3)

    def test_curve_series_is_zeta(self):
        # Hilb^n of a smooth curve is its n-th symmetric power
        for cls in (L, 1 + L, 2 + 3 * L,
                    1 - 2 * L + Polynomial.monomial(MOTIVIC_RING, (-1,))):
            X = VarietyClass(cls, 1)
            for order in (0, 1, 6, 40):
                assert global_series(X, local_series(1, order), order) == \
                    kapranov_zeta(X, order)

    def test_affine_plane_coefficients_count_partitions(self):
        # chi(A^2) = 1, so at L = 1 every coefficient is a partition number
        X = VarietyClass(L ** 2, 2)
        H = global_series(X, local_series(2, 8), 8)
        for n, c in enumerate(H.coefficients):
            assert c.is_effective()
            assert c.evaluate_at_ones() == partition_count(n)


class TestAffineConsistency:
    def test_passes_for_bundled_dimensions(self):
        assert affine_consistency_check(1, 6)
        assert affine_consistency_check(2, 6)

    def test_direct_products(self):
        # d=1: geometric series in L*t; d=2: hand-built factor product
        direct = _direct_affine_series(1, 4)
        assert direct == Series(MOTIVIC_RING, 4, [L ** n for n in range(5)])
        d2 = _direct_affine_series(2, 2)
        assert d2.coefficient(1) == L ** 2
        assert d2.coefficient(2) == L ** 4 + L ** 3

    def test_report_collects_failures(self):
        report = []
        assert affine_consistency_check(2, 4, report=report)
        assert report == []


class TestEulerSpecialization:
    def test_partition_counts(self):
        X = VarietyClass(Polynomial.one(MOTIVIC_RING), 2)
        H = global_series(X, local_series(2, 6), 6)
        chi = euler_specialization(H)
        assert [c.constant_value() for c in chi.coefficients] == \
            [1, 1, 2, 3, 5, 7, 11]

    def test_identity_on_one(self):
        assert euler_specialization(Series.one(MOTIVIC_RING, 3)) == \
            Series.one(INTEGERS, 3)

    def test_surface_formula_for_any_chi(self):
        # chi(X)=2 must give the coefficients of prod 1/(1-t^k)^2,
        # checked against a partition-count convolution
        X = VarietyClass(1 + L, 2)
        H = global_series(X, local_series(2, 8), 8)
        chi = euler_specialization(H)
        convolution = [
            sum(partition_count(i) * partition_count(n - i)
                for i in range(n + 1))
            for n in range(9)
        ]
        assert [c.constant_value() for c in chi.coefficients] == convolution


class TestHodgeDeligne:
    def test_symmetric_square_of_line(self):
        e = VarietyClass(Polynomial(UV, {(0, 0): 1, (1, 1): 1}), 1)
        H = hodge_deligne_series(e, 3)
        uv = Polynomial(UV, {(1, 1): 1})
        assert H.coefficient(2) == 1 + uv + uv * uv

    def test_degree_one_coefficient_is_the_class(self):
        e = VarietyClass(Polynomial(UV, {(2, 2): 1}), 2)
        H = hodge_deligne_series(e, 2)
        assert H.coefficient(1) == Polynomial(UV, {(2, 2): 1})

    def test_specializes_to_euler(self):
        e = VarietyClass(Polynomial(UV, {(1, 1): 1, (0, 0): 1}), 2)
        H = hodge_deligne_series(e, 6)
        X = VarietyClass(L + 1, 2)
        motivic = global_series(X, local_series(2, 6), 6)
        assert euler_specialization(H) == euler_specialization(motivic)

    def test_matches_substituted_motivic_series(self):
        from motivic_power.rings import MonomialMap
        u = Polynomial.variable(UV, "u")
        v = Polynomial.variable(UV, "v")
        to_uv = MonomialMap(MOTIVIC_RING, UV, {"L": u * v})
        X = VarietyClass(L ** 2 + L, 2)
        motivic = global_series(X, local_series(2, 5), 5)
        e = VarietyClass(to_uv(X.representation), 2)
        assert hodge_deligne_series(e, 5) == motivic.map_coefficients(to_uv, UV)

    def test_needs_two_variables(self):
        e = VarietyClass(Polynomial.one(MOTIVIC_RING), 2)
        with pytest.raises(RingMismatchError):
            hodge_deligne_series(e, 3)


U, V = (Polynomial.variable(UV, name) for name in UV.variables)


def surface_class(q, pg, h11):
    """e(X) of a surface with h^{1,0} = q, h^{2,0} = p_g, h^{1,1} = h11."""
    return (1 - q * (U + V) + pg * (U ** 2 + V ** 2) + h11 * U * V
            - q * (U ** 2 * V + U * V ** 2) + U ** 2 * V ** 2)


TO_UV = MonomialMap(MOTIVIC_RING, UV, {"L": Polynomial(UV, {(1, 1): 1})})


def coefficient_route(X, order, user_data=None):
    """The Hodge-Deligne series through public functions alone: every
    coefficient of the local series mapped through L -> uv, into a
    series with no cached factorization, which ``pow_series`` factors
    from scratch and raises to e_X."""
    local = local_series(X.dimension, order, user_data).series
    mapped = Series(UV, order, [TO_UV(c) for c in local.coefficients])
    assert not mapped._factor_cache
    return pow_series(mapped, X.representation)


class TestHodgeFromExponents:
    """hodge_deligne_series maps only the local series' Euler exponents."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 12),
           st.integers(0, 12))
    def test_equals_the_coefficient_route(self, q, pg, h11, order):
        X = VarietyClass(surface_class(q, pg, h11), 2)
        assert hodge_deligne_series(X, order) == coefficient_route(X, order)

    @pytest.mark.parametrize("dimension,e", [
        pytest.param(2, surface_class(0, 0, 1), id="P2"),
        pytest.param(2, surface_class(0, 1, 20), id="K3"),
        pytest.param(2, surface_class(2, 1, 4), id="abelian"),
        pytest.param(1, 1 - 2 * (U + V) + U * V, id="genus-2-curve"),
    ])
    def test_order_40_maps_one_exponent_per_degree(self, monkeypatch,
                                                   dimension, e):
        X = VarietyClass(e, dimension)
        expected = coefficient_route(X, 40)
        calls = []
        real = MonomialMap.__call__

        def counted(self, p):
            calls.append(p)
            return real(self, p)
        monkeypatch.setattr(MonomialMap, "__call__", counted)
        assert hodge_deligne_series(X, 40) == expected
        assert len(calls) == 40

    def test_user_data_in_dimension_three(self):
        series = Series(MOTIVIC_RING, 6, [
            1, 1, 1 + L + L ** 2, 1 + L + 2 * L ** 2 + L ** 3,
            2 + L ** 4, 1 - L + 3 * L ** 5, 1 + 4 * L ** 2 + L ** 7])
        # as --local-data reads it: parsed from JSON, nothing cached
        data = LocalHilbertData.from_json(
            LocalHilbertData(3, series).to_json("test"))
        X = VarietyClass(1 + U * V + (U * V) ** 2 + (U * V) ** 3 - U ** 3, 3)
        for order in (6, 4, 0):
            assert (hodge_deligne_series(X, order, data)
                    == coefficient_route(X, order, data))


RAMP = Series(MOTIVIC_RING, 3, [1, 1, 1 + L, 1 + L + L ** 2])


ORDER = (ValueError, "^order must be a nonnegative integer$")
DIMENSION = (ValueError, "^dimension must be a positive integer$")
EXPONENT = (TypeError, "^the exponent must be an int or a Polynomial")
CLASS = (TypeError, "^the class must be an int, a Polynomial or a VarietyClass")
COEFFICIENTS = (TypeError, "^coefficients must be Polynomial or int$")
EXPONENTS = (TypeError, "^exponents must be Polynomial or int$")


@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: base_series(L, -1), ORDER, id="base_series"),
    pytest.param(lambda: base_series(L, 2.0), ORDER, id="base_series-float"),
    pytest.param(lambda: kapranov_zeta(L + 1, -1), ORDER, id="kapranov_zeta"),
    pytest.param(lambda: kapranov_zeta(1.5, 3), CLASS, id="kapranov_zeta-float"),
    pytest.param(lambda: kapranov_zeta("L", 3), CLASS, id="kapranov_zeta-str"),
    pytest.param(lambda: RAMP.truncate(-1), ORDER, id="Series.truncate"),
    pytest.param(lambda: RAMP.truncate(1.0), ORDER,
                 id="Series.truncate-float"),
    pytest.param(lambda: EulerProduct(MOTIVIC_RING, -1, []), ORDER,
                 id="EulerProduct"),
    pytest.param(lambda: exp_map([L], order=-1), ORDER, id="exp_map"),
    pytest.param(lambda: global_series(VarietyClass(L ** 2, 2),
                                       local_series(2, 3), -1),
                 ORDER, id="global_series"),
    pytest.param(lambda: LocalHilbertData(2, RAMP).truncate(-1), ORDER,
                 id="LocalHilbertData.truncate"),
    # a bool is no order or dimension, so no JSON file is written with one
    pytest.param(lambda: Series.from_json(
        Series(INTEGERS, True, [1, 1]).to_json()), ORDER,
        id="Series-bool-round-trip"),
    pytest.param(lambda: EulerProduct.from_json(factor(
        exp_map([1], order=True, ring=INTEGERS)).to_json()), ORDER,
        id="EulerProduct-bool-round-trip"),
    pytest.param(lambda: base_series(L, True), ORDER, id="base_series-bool"),
    pytest.param(lambda: RAMP.truncate(False), ORDER,
                 id="Series.truncate-bool"),
    pytest.param(lambda: local_series(2, True), ORDER, id="local_series-bool"),
    pytest.param(lambda: local_series(True, 3), DIMENSION,
                 id="local_series-bool-dimension"),
    pytest.param(lambda: VarietyClass(L, True), DIMENSION,
                 id="VarietyClass-bool"),
    pytest.param(lambda: LocalHilbertData(True, RAMP), DIMENSION,
                 id="LocalHilbertData-bool"),
    # nor a coefficient or an exponent entry, so none is written as "True"
    pytest.param(lambda: Polynomial.from_json(
        Polynomial.constant(INTEGERS, True).to_json()),
        (TypeError, "^constant must be int$"), id="Polynomial-bool-constant"),
    pytest.param(lambda: Series.from_json(
        Series(INTEGERS, 2, [1, True, 0]).to_json()), COEFFICIENTS,
        id="Series-bool-coefficient"),
    pytest.param(lambda: Polynomial.from_json(
        Polynomial(RingDescriptor(("x",)), {(True,): 2}).to_json()),
        (TypeError, "^exponents must be int$"), id="Polynomial-bool-exponent"),
    pytest.param(lambda: Polynomial(UV, {(1, 0): False}),
                 (TypeError, "^coefficients must be int"),
                 id="Polynomial-bool-coefficient"),
    pytest.param(lambda: EulerProduct(INTEGERS, 1, [True]), EXPONENTS,
                 id="EulerProduct-bool-exponent"),
    pytest.param(lambda: pow_series(RAMP, True), EXPONENT,
                 id="pow_series-bool"),
    pytest.param(lambda: VarietyClass(True, 1),
                 (TypeError, "^representation must be a Polynomial or int$"),
                 id="VarietyClass-bool-representation"),
    pytest.param(lambda: kapranov_zeta(False, 3), CLASS,
                 id="kapranov_zeta-bool"),
    pytest.param(lambda: EulerProduct(INTEGERS, 1, ["x"]), EXPONENTS,
                 id="EulerProduct-str-exponent"),
    pytest.param(lambda: exp_map([2.5], order=1, ring=INTEGERS), EXPONENTS,
                 id="exp_map-float-exponent"),
    pytest.param(lambda: pow_series(RAMP, 1.5), EXPONENT, id="pow_series"),
    pytest.param(lambda: transport_check(MonomialMap.identity(MOTIVIC_RING),
                                         RAMP, 1.5),
                 EXPONENT, id="transport_check"),
])
def test_bad_arguments_are_refused(call, error):
    kind, message = error
    with pytest.raises(kind, match=message):
        call()


class TestKapranovZeta:
    def test_affine_line_hodge_class(self):
        uv = Polynomial(UV, {(1, 1): 1})
        Z = kapranov_zeta(VarietyClass(1 + uv, 1), 2)
        assert Z.coefficient(2) == 1 + uv + uv * uv

    def test_integer_class_binomials(self):
        from math import comb
        for m in range(1, 7):
            Z = kapranov_zeta(VarietyClass(Polynomial.constant(INTEGERS, m), 1), 6)
            for n in range(7):
                assert Z.coefficient(n).constant_value() == comb(m + n - 1, n)

    @pytest.mark.parametrize("cls", [
        3, VarietyClass(3, 1), Polynomial.constant(INTEGERS, 3)],
        ids=["int", "VarietyClass", "Polynomial"])
    def test_integer_class_is_a_constant_over_z(self, cls):
        # (1-t)^(-3): coefficient n is C(n+2, 2)
        Z = kapranov_zeta(cls, 3)
        assert Z == Series(INTEGERS, 3, [1, 3, 6, 10])

    def test_zero_class(self):
        Z = kapranov_zeta(VarietyClass(Polynomial.zero(UV), 1), 4)
        assert Z == Series.one(UV, 4)

    def test_accepts_bare_polynomial(self):
        assert kapranov_zeta(L, 3) == kapranov_zeta(VarietyClass(L, 1), 3)


class TestVarietyClass:
    def test_dimension_positive(self):
        with pytest.raises(ValueError):
            VarietyClass(Polynomial.one(UV), 0)

    def test_int_promotion(self):
        X = VarietyClass(5, 1)
        assert X.representation == Polynomial.constant(INTEGERS, 5)


class _BundledSeriesCache:
    """A bundled punctual series is built once per dimension and order,
    and carries its Euler exponents.  Subclasses set the dimension, its
    exponents, a class and a Hodge-Deligne polynomial of that dimension,
    and user data of that dimension."""

    @staticmethod
    def fresh_copy(series):
        return Series(series.ring, series.order, series.coefficients)

    def test_seeded_factorization_matches_reverse_recurrence(self):
        series = local_series(self.dimension, 60).series
        seeded = series._factor_cache[MONOMIAL_KERNEL]
        assert seeded == EulerProduct(MOTIVIC_RING, 60, self.exponents(60))
        copy = self.fresh_copy(series)
        assert not copy._factor_cache
        assert factor(copy) == seeded

    def test_lower_order_after_higher_equals_fresh_build(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_BUNDLED", {})
        d = self.dimension
        high = local_series(d, 40)
        low = local_series(d, 20)
        fresh = hilbert._bundled_series(d, 20)
        assert low.series == fresh
        assert low.series._factor_cache == fresh._factor_cache
        assert low.series == high.series.truncate(20)
        assert hilbert._BUNDLED[d].series.order == 40

    def test_built_once_per_order(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_BUNDLED", {})
        calls = []
        build = hilbert._bundled_series

        def counted(dimension, order):
            calls.append((dimension, order))
            return build(dimension, order)

        monkeypatch.setattr(hilbert, "_bundled_series", counted)
        d, other = self.dimension, 3 - self.dimension
        for order in (10, 10, 5, 12, 8):
            assert local_series(d, order).series == build(d, order)
        assert calls == [(d, 10), (d, 12)]
        # the other bundled dimension has its own entry
        assert local_series(other, 5).series == build(other, 5)
        assert local_series(d, 12).series == build(d, 12)
        assert calls == [(d, 10), (d, 12), (other, 5)]

    def test_global_series_reads_the_seeded_factorization(self, monkeypatch):
        X = VarietyClass(self.motivic_class, self.dimension)
        local = local_series(self.dimension, 30)
        expected = pow_series(self.fresh_copy(local.series), X.representation)
        monkeypatch.setattr(
            "motivic_power.power._solve_reverse",
            lambda *args: pytest.fail("the reverse recurrence ran"))
        assert global_series(X, local, 30) == expected
        assert global_series(X, local, 18) == expected.truncate(18)

    def test_hodge_deligne_series_reads_the_seeded_factorization(
            self, monkeypatch):
        X = VarietyClass(self.hodge_class, self.dimension)
        # as user data the series carries no factorization, so the
        # exponents come off the reverse recurrence
        unfactored = LocalHilbertData(self.dimension, self.fresh_copy(
            local_series(self.dimension, 30).series))
        expected = hodge_deligne_series(X, 30, unfactored)
        monkeypatch.setattr(
            "motivic_power.power._solve_reverse",
            lambda *args: pytest.fail("the reverse recurrence ran"))
        assert hodge_deligne_series(X, 30) == expected
        assert hodge_deligne_series(X, 18) == expected.truncate(18)

    def test_user_data_is_not_cached(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_BUNDLED", {})
        for d, series in ((3, Series(MOTIVIC_RING, 3, [1, 1, 1 + L,
                                                       1 + L + L ** 3])),
                          (self.dimension, self.user_series)):
            data = LocalHilbertData(d, series)
            assert local_series(d, 2, data).series == series.truncate(2)
            assert not hilbert._BUNDLED
            assert not series._factor_cache


class TestCurveSeriesCache(_BundledSeriesCache):
    """1/(1-t), with b_1 = 1."""

    dimension = 1
    motivic_class = L + 1
    hodge_class = 1 - 2 * (U + V) + U * V
    user_series = Series(MOTIVIC_RING, 3, [1, 1, 1, 1])

    def exponents(self, order):
        return ([1] + [0] * order)[:order]


class TestSurfaceSeriesCache(_BundledSeriesCache):
    """Goettsche's product, with b_k = L^(k-1)."""

    dimension = 2
    motivic_class = L ** 2 + L + 1
    hodge_class = surface_class(0, 1, 20)
    user_series = Series(MOTIVIC_RING, 3, [1, 1, 1 + L, 1 + L + L ** 3])

    def exponents(self, order):
        return [L ** (k - 1) for k in range(1, order + 1)]


def plane_partition_counts(top):
    """pp(n) for n <= top, by listing every plane partition row by row.

    A plane partition is a stack of weakly decreasing rows of positive
    integers, each row no longer than the one above and no larger in any
    column.
    """
    counts = [0] * (top + 1)

    def rows_under(above, budget, prefix=()):
        if prefix:
            yield prefix
        i = len(prefix)
        if i < len(above):
            cap = min(above[i], prefix[-1] if prefix else budget, budget)
            for part in range(1, cap + 1):
                yield from rows_under(above, budget - part, prefix + (part,))

    def stack(total, above):
        counts[total] += 1
        for row in rows_under(above, top - total):
            stack(total + sum(row), row)

    stack(0, (top,) * top)
    return counts


def macmahon_power(chi, order):
    """prod_k (1 - t^k)^(-k chi), multiplied out factor by factor."""
    c = [1] + [0] * order
    for k in range(1, order + 1):
        for _ in range(k * abs(chi)):
            if chi > 0:  # times 1/(1 - t^k) = 1 + t^k + t^2k + ...
                for n in range(k, order + 1):
                    c[n] += c[n - k]
            else:  # times (1 - t^k)
                for n in range(order, k - 1, -1):
                    c[n] -= c[n - k]
    return c


class TestMacMahon:
    """Torus-fixed points of Hilb^n(C^3) are the plane partitions of n, so
    the Euler specialization of a threefold's series is M(t)^chi(X)."""

    ORDER = 12

    def local_data(self):
        counts = plane_partition_counts(self.ORDER)
        assert counts[:7] == [1, 1, 3, 6, 13, 24, 48]
        return LocalHilbertData(3, Series(MOTIVIC_RING, self.ORDER, counts))

    @pytest.mark.parametrize("cls,chi", [
        (L ** 3 + L ** 2 + L + 1, 4),
        (L ** 3, 1),
        (L ** 3 - 3 * L, -2),
    ])
    def test_euler_specialization_is_macmahon(self, cls, chi):
        X = VarietyClass(cls, 3)
        series = global_series(X, self.local_data(), self.ORDER)
        got = [c.constant_value() for c in euler_specialization(series).coefficients]
        assert got == macmahon_power(chi, self.ORDER)

    def test_through_the_cli(self, capsys, tmp_path):
        from motivic_power.cli import main
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(self.local_data().to_json("plane partitions")),
                        encoding="utf-8")
        assert main(["hilbert", "--dim", "3", "--class", "L^3+L^2+L+1",
                     "--local-data", str(path), "--specialize", "euler",
                     "--truncate", str(self.ORDER)]) == 0
        out = capsys.readouterr().out
        assert out == "".join("t^%d: %d\n" % (k, c) for k, c in
                              enumerate(macmahon_power(4, self.ORDER)))
