import json

import pytest

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
    factor,
    pow_series,
)
from motivic_power.rings import (
    INTEGERS,
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
        for cls in (L, 1 + L, 2 + 3 * L):
            X = VarietyClass(cls, 1)
            assert global_series(X, local_series(1, 6), 6) == \
                kapranov_zeta(X, 6)

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


class TestSurfaceSeriesCache:
    """The punctual surface series is built once and carries its exponents."""

    @staticmethod
    def fresh_copy(series):
        return Series(series.ring, series.order, series.coefficients)

    def test_seeded_factorization_matches_reverse_recurrence(self):
        series = local_series(2, 60).series
        seeded = series._factor_cache[MONOMIAL_KERNEL]
        assert seeded == EulerProduct(
            MOTIVIC_RING, 60, [L ** (k - 1) for k in range(1, 61)])
        copy = self.fresh_copy(series)
        assert not copy._factor_cache
        assert factor(copy) == seeded

    def test_uv_image_factorization_matches_reverse_recurrence(self):
        mapped = hilbert._uv_image(local_series(2, 60).series, UV)
        seeded = mapped._factor_cache[MONOMIAL_KERNEL]
        uv = Polynomial(UV, {(1, 1): 1})
        assert seeded == EulerProduct(
            UV, 60, [uv ** (k - 1) for k in range(1, 61)])
        assert factor(self.fresh_copy(mapped)) == seeded

    def test_uv_image_of_unfactored_series_carries_nothing(self):
        series = self.fresh_copy(local_series(2, 6).series)
        assert not hilbert._uv_image(series, UV)._factor_cache

    def test_lower_order_after_higher_equals_fresh_build(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_SURFACE_CACHE", None)
        high = local_series(2, 40)
        low = local_series(2, 20)
        fresh = hilbert._surface_series(20)
        assert low.series == fresh
        assert low.series._factor_cache == fresh._factor_cache
        assert low.series == high.series.truncate(20)
        assert hilbert._SURFACE_CACHE.series.order == 40

    def test_built_once_per_order(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_SURFACE_CACHE", None)
        calls = []
        build = hilbert._surface_series

        def counted(order):
            calls.append(order)
            return build(order)

        monkeypatch.setattr(hilbert, "_surface_series", counted)
        for order in (10, 10, 5, 12, 8):
            assert local_series(2, order).series == build(order)
        assert calls == [10, 12]

    def test_global_series_reads_the_seeded_factorization(self, monkeypatch):
        X = VarietyClass(L ** 2 + L + 1, 2)
        local = local_series(2, 30)
        expected = pow_series(self.fresh_copy(local.series), X.representation)
        monkeypatch.setattr(
            "motivic_power.power._solve_reverse",
            lambda *args: pytest.fail("the reverse recurrence ran"))
        assert global_series(X, local, 30) == expected
        assert global_series(X, local, 18) == expected.truncate(18)

    def test_user_data_is_not_cached(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_SURFACE_CACHE", {})
        series = Series(MOTIVIC_RING, 3, [1, 1, 1 + L, 1 + L + L ** 3])
        data = LocalHilbertData(3, series)
        assert local_series(3, 2, data).series == series.truncate(2)
        assert not hilbert._SURFACE_CACHE
        assert not series._factor_cache


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
