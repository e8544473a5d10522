"""Distribution functions against the scipy reference implementations.

scipy is a test-only dependency: the package computes every tail
probability itself, and these tests pin that arithmetic to an independent
oracle.
"""

import math

import numpy as np
import pytest
import scipy.stats as sps
from scipy.special import betainc as sp_betainc

from vceval import distributions
from vceval.distributions import (
    _barycentric,
    _erfc,
    _range_cdf_table,
    _range_cdf_unit,
    betainc,
    chi2_sf,
    f_sf,
    normal_cdf,
    normal_ppf,
    normal_sf,
    studentized_range_cdf,
    studentized_range_crit,
    studentized_range_sf,
)
from vceval.errors import NoCriticalValue, VCEvalError


class TestNormal:
    def test_cdf_against_scipy(self):
        for x in np.linspace(-8.0, 8.0, 33):
            assert normal_cdf(x) == pytest.approx(sps.norm.cdf(x), rel=1e-12, abs=1e-300)

    def test_sf_symmetry(self):
        for x in (-3.2, -0.5, 0.0, 1.7, 6.0):
            assert normal_sf(x) == pytest.approx(normal_cdf(-x), rel=1e-13)

    def test_ppf_round_trip(self):
        for p in (1e-6, 0.025, 0.5, 0.975, 1 - 1e-6):
            assert normal_cdf(normal_ppf(p)) == pytest.approx(p, rel=1e-9)

    def test_ppf_against_scipy(self):
        for p in (0.001, 0.05, 0.5, 0.95, 0.999):
            assert normal_ppf(p) == pytest.approx(sps.norm.ppf(p), rel=1e-9, abs=1e-12)

    def test_deep_tail_is_not_flushed(self):
        assert 0.0 < normal_sf(10.0) < 1e-20


class TestGammaChi2:
    def test_chi2_sf_against_scipy(self):
        for df in (1, 2, 3, 5, 10, 20, 30, 80):
            for x in (0.02, 0.1, 1.0, 2.4, 7.7, 25.0, 60.0, 160.0):
                assert chi2_sf(x, df) == pytest.approx(
                    sps.chi2.sf(x, df), rel=1e-11, abs=1e-14
                )

    def test_chi2_known_point(self):
        # exponential special case: sf(x, 2) = exp(-x/2)
        assert chi2_sf(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-13)


class TestBetaF:
    def test_betainc_against_scipy(self):
        for a in (0.5, 1.0, 2.0, 6.5):
            for b in (0.5, 1.5, 4.0, 12.0):
                for x in (0.0, 0.05, 0.3, 0.5, 0.77, 0.99, 1.0):
                    assert betainc(a, b, x) == pytest.approx(
                        sp_betainc(a, b, x), rel=1e-11, abs=1e-14
                    )

    def test_f_sf_against_scipy(self):
        for d1 in (1, 2, 4, 10):
            for d2 in (2, 5, 12, 40):
                for x in (0.1, 1.0, 2.5, 8.0, 30.0):
                    assert f_sf(x, d1, d2) == pytest.approx(
                        sps.f.sf(x, d1, d2), rel=1e-10, abs=1e-14
                    )

    def test_f_one_df_is_t_squared(self):
        # F(1, d2) is the square of Student's t with d2 dof
        for d2 in (5, 12):
            for t in (0.5, 1.3, 2.8):
                assert f_sf(t * t, 1, d2) == pytest.approx(
                    2 * sps.t.sf(t, d2), rel=1e-10
                )


class TestStudentizedRange:
    """The integration grid must reproduce scipy.stats.studentized_range
    far beyond the 1e-6 the consumers need."""

    CASES = [
        (2.0, 2, 4.0),
        (3.0, 3, 10.0),
        (3.77, 3, 12.0),
        (4.5, 4, 20.0),
        (2.83, 5, 8.0),
        (6.0, 3, 60.0),
        (1.2, 7, 30.0),
    ]

    @pytest.mark.parametrize("q,k,df", CASES)
    def test_cdf_against_scipy(self, q, k, df):
        want = sps.studentized_range.cdf(q, k, df)
        assert studentized_range_cdf(q, k, df) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("q,k,df", CASES)
    def test_sf_against_scipy(self, q, k, df):
        want = sps.studentized_range.sf(q, k, df)
        assert studentized_range_sf(q, k, df) == pytest.approx(want, abs=1e-8)

    def test_cdf_monotone_in_q(self):
        values = [studentized_range_cdf(q, 3, 12.0) for q in (0.5, 1.5, 3.0, 5.0, 8.0)]
        assert values == sorted(values)
        assert 0.0 <= values[0] and values[-1] <= 1.0

    def test_crit_inverts_sf(self):
        q = studentized_range_crit(0.05, 3, 12.0)
        assert studentized_range_sf(q, 3, 12.0) == pytest.approx(0.05, abs=1e-8)

    def test_crit_against_published_table(self):
        # classic q table values at alpha = 0.05
        assert studentized_range_crit(0.05, 3, 12.0) == pytest.approx(3.773, abs=2e-3)
        assert studentized_range_crit(0.05, 2, 10.0) == pytest.approx(3.151, abs=2e-3)
        assert studentized_range_crit(0.05, 4, 20.0) == pytest.approx(3.958, abs=2e-3)

    def test_degenerate_q(self):
        assert studentized_range_cdf(0.0, 3, 12.0) == 0.0
        assert studentized_range_sf(0.0, 3, 12.0) == 1.0


class TestErfcPort:
    """The vectorised Cody erfc behind the studentized-range integrand must
    match the scalar math.erfc wherever erfc is a normal number."""

    EDGES = (0.46875, 4.0, 26.543)

    def test_against_math_erfc(self):
        edges = np.array(self.EDGES)
        edges = np.concatenate([edges, -edges])
        x = np.concatenate(
            [np.linspace(-27.0, 27.0, 540_001), edges,
             np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
        )
        want = np.array([math.erfc(v) for v in x])
        got = _erfc(x)
        live = want > 1e-300
        assert np.max(np.abs(got[live] - want[live]) / want[live]) <= 2e-15
        assert np.all(got[~live] <= 1e-300)

    def test_matrix_shape_and_special_values(self):
        got = _erfc(np.array([[0.0, -0.0, np.inf], [-np.inf, np.nan, -30.0]]))
        assert got.shape == (2, 3)
        assert got[0].tolist() == [1.0, 1.0, 0.0]
        assert got[1, 0] == 2.0 and math.isnan(got[1, 1]) and got[1, 2] == 2.0


class TestStudentizedRangeCrit:
    """Critical values against scipy, over a grid that takes the bracket
    doubling (q > 4 at small df or alpha) and the df > 1e5 limit path."""

    @pytest.mark.parametrize("alpha", [0.1, 0.05, 0.001])
    @pytest.mark.parametrize("df", [2.0, 5.0, 12.0, 60.0, 2e5])
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_crit_against_scipy(self, k, df, alpha):
        q = studentized_range_crit(alpha, k, df)
        assert sps.studentized_range.sf(q, k, df) == pytest.approx(alpha, abs=1e-8)
        assert q == pytest.approx(sps.studentized_range.ppf(1.0 - alpha, k, df), abs=1e-6)

    def test_cold_crit_needs_few_sf_evaluations(self, monkeypatch):
        calls = []

        def counting_sf(q, k, df):
            calls.append(q)
            return studentized_range_sf(q, k, df)

        monkeypatch.setattr(distributions, "studentized_range_sf", counting_sf)
        q = studentized_range_crit.__wrapped__(0.05, 3, 12.0)  # bypass the cache
        assert 0 < len(calls) <= 20
        assert studentized_range_sf(q, 3, 12.0) == pytest.approx(0.05, abs=1e-12)

    def test_critical_value_past_the_bracket_is_a_data_error(self):
        # at df = 2 the upper tail at q = 8192 is still above alpha = 1e-9
        with pytest.raises(NoCriticalValue, match=(
                r"^no studentized range critical value at alpha=1e-09, k=2, df=2: "
                r"the upper tail at q = 8192 is still above alpha$")):
            studentized_range_crit.__wrapped__(1e-9, 2, 2.0)

    def test_root_finder_that_does_not_converge_is_a_data_error(self, monkeypatch):
        monkeypatch.setattr(distributions, "_MAX_ITER", 1)
        with pytest.raises(NoCriticalValue, match=(
                r"^no studentized range critical value at alpha=0.05, k=3, df=12: "
                r"root finder did not converge$")):
            studentized_range_crit.__wrapped__(0.05, 3, 12.0)
        assert issubclass(NoCriticalValue, VCEvalError)

    @pytest.mark.parametrize("df", [1e3, 9e4])
    def test_cdf_at_large_df_against_scipy(self, df):
        # at q = 40, 18 / q lies below where the scale density starts
        for k in (3, 10):
            for q in (2.0, 3.5, 5.0, 40.0):
                want = sps.studentized_range.cdf(q, k, df)
                assert studentized_range_cdf(q, k, df) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("k", [3, 50, 300])
    @pytest.mark.parametrize("df", [1e3, 9e4])
    @pytest.mark.parametrize("q", [200.0, 8e3])
    def test_cdf_far_past_the_saturation_point(self, k, df, q):
        # the scale grid runs backwards and every q u is far above 18, where
        # the unit range CDF is 1; a Tukey q of well-separated groups lands here
        assert studentized_range_cdf(q, k, df) == 1.0

    @pytest.mark.parametrize("k,df", [(10, 2.0), (3, 12.0)])
    def test_sf_continuous_where_the_scale_grid_is_cut(self, k, df):
        # the scale grid ends at min(u_hi, 18 / q); both bounds meet here
        q_switch = 18.0 / (1.0 + 14.0 / math.sqrt(2.0 * df))
        below, at, above = (
            studentized_range_sf(q_switch * (1.0 + h), k, df) for h in (-1e-9, 0.0, 1e-9)
        )
        # a jump would show as unequal steps on the two sides
        assert below > at > above
        assert abs((below - at) - (at - above)) < 1e-13
        qs = np.geomspace(0.5, 150.0, 60)
        values = [studentized_range_sf(q, k, df) for q in qs]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestRangeCdfTable:
    """The unit range CDF is sampled once per k into a polynomial that the
    studentized-range CDF evaluates instead of the quadrature."""

    W = np.linspace(0.0, 18.0, 20_001)

    @pytest.mark.parametrize("k,degree", [
        (2, 64), (3, 64), (5, 64), (10, 64), (50, 128), (100, 128), (300, 256),
    ])
    def test_table_matches_the_quadrature(self, k, degree):
        table = _range_cdf_table(k)
        assert table.func is _barycentric and len(table.keywords["nodes"]) == degree + 1
        assert np.max(np.abs(table(self.W) - _range_cdf_unit(self.W, k))) <= 1e-11

    def test_k_without_a_passing_degree_uses_the_quadrature(self):
        table = _range_cdf_table(1000)
        assert table.func is _range_cdf_unit
        assert np.array_equal(table(self.W), _range_cdf_unit(self.W, 1000))

    def test_table_at_a_node_is_the_sampled_value(self):
        keywords = _range_cdf_table(3).keywords
        nodes, values = keywords["nodes"], keywords["values"]
        got = _range_cdf_table(3)(nodes[[0, 7, 64]])
        assert np.array_equal(got, values[[0, 7, 64]])

    def test_cold_crit_and_tukey_rows_sample_the_unit_cdf_once(self, monkeypatch):
        # the quadrature alone took 12 calls x 288 scale points = 3,456 w values
        unit, sampled = _range_cdf_unit, []

        def counting_unit(w, k):
            sampled.append(len(w))
            return unit(w, k)

        monkeypatch.setattr(distributions, "_range_cdf_unit", counting_unit)
        _range_cdf_table.cache_clear()
        studentized_range_crit.cache_clear()
        try:
            studentized_range_crit(0.05, 3, 12.0)
            for q in (1.0, 2.5, 4.0):
                studentized_range_sf(q, 3, 12.0)
        finally:
            _range_cdf_table.cache_clear()
            studentized_range_crit.cache_clear()
        assert 0 < sum(sampled) <= 300
