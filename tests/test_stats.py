"""Statistical machinery against scipy oracles and hand-worked fixtures."""

import math
import random

import pytest
import scipy.stats as sps

from vceval import stats
from vceval.errors import (
    AllValuesEqual,
    EmptyDataset,
    FormatError,
    MalformedLine,
    TooFewSamples,
    TooManySamples,
    ZeroVariance,
    ZeroWithinVariance,
)
from vceval.stats import (
    NONPARAMETRIC,
    PARAMETRIC,
    ObservationTable,
    compare_pipeline,
    dunn_test,
    fit_effects,
    kruskal_wallis,
    load_observation_table,
    one_way_anova,
    parse_observations,
    report_to_dict,
    shapiro_wilk,
    tukey_hsd,
    write_posthoc_csv,
)

# ten fixed metric observations whose Shapiro-Wilk outcome was frozen from
# an independent implementation: W = 0.978745328, p = 0.958100839
REF10 = (0.52, 0.61, 0.58, 0.49, 0.55, 0.72, 0.44, 0.63, 0.57, 0.50)


def table(*groups):
    return ObservationTable(
        groups=tuple((f"g{i}", tuple(obs)) for i, obs in enumerate(groups))
    )


class TestObservationTable:
    def test_properties(self):
        t = table((1.0, 2.0), (3.0, 4.0, 5.0))
        assert t.labels == ("g0", "g1")
        assert t.sizes == (2, 3)
        assert t.total == 5
        assert t.pooled() == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_needs_two_groups(self):
        with pytest.raises(TooFewSamples):
            ObservationTable(groups=(("a", (1.0, 2.0)),))

    def test_needs_two_observations_each(self):
        with pytest.raises(TooFewSamples):
            table((1.0, 2.0), (3.0,))

    def test_unique_labels(self):
        with pytest.raises(ValueError):
            ObservationTable(groups=(("a", (1.0, 2.0)), ("a", (3.0, 4.0))))

    def test_finite_values(self):
        with pytest.raises(ValueError):
            table((1.0, float("nan")), (3.0, 4.0))


class TestShapiroWilk:
    def test_three_point_linear_sample(self):
        r = shapiro_wilk([1.0, 2.0, 3.0])
        assert r.statistic == 1.0
        assert r.p_value == 1.0

    def test_three_point_order_independent(self):
        assert shapiro_wilk([3.0, 1.0, 2.0]).statistic == 1.0

    def test_frozen_ten_sample_reference(self):
        r = shapiro_wilk(REF10)
        assert r.statistic == pytest.approx(0.978745328, abs=1e-7)
        assert r.p_value == pytest.approx(0.958100839, abs=1e-7)

    def test_against_scipy_across_sizes(self):
        rng = random.Random(2023)
        for n in range(4, 51):
            x = [rng.gauss(10.0, 2.0) for _ in range(n)]
            got = shapiro_wilk(x)
            want_w, want_p = sps.shapiro(x)
            assert got.statistic == pytest.approx(want_w, abs=1e-6)
            assert got.p_value == pytest.approx(want_p, abs=1e-6)

    def test_against_scipy_skewed_samples(self):
        rng = random.Random(99)
        for n in (6, 12, 25, 50):
            x = [math.exp(rng.gauss(0.0, 1.0)) for _ in range(n)]
            got = shapiro_wilk(x)
            want_w, want_p = sps.shapiro(x)
            assert got.statistic == pytest.approx(want_w, abs=1e-6)
            assert got.p_value == pytest.approx(want_p, abs=1e-6)

    @pytest.mark.parametrize("shape", ["normal", "exponential", "uniform"])
    def test_against_scipy_past_fifty(self, shape):
        rng = random.Random(51)
        draw = {
            "normal": lambda: rng.gauss(10.0, 2.0),
            "exponential": lambda: rng.expovariate(1.0),
            "uniform": lambda: rng.uniform(0.0, 1.0),
        }[shape]
        for n in (51, 52, 75, 100, 250, 1000, 2500, 4999, 5000):
            x = [draw() for _ in range(n)]
            got = shapiro_wilk(x)
            want_w, want_p = sps.shapiro(x)
            assert got.statistic == pytest.approx(want_w, abs=1e-6)
            assert got.p_value == pytest.approx(want_p, abs=1e-6)

    def test_size_limits(self):
        with pytest.raises(TooFewSamples):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(TooManySamples):
            shapiro_wilk(list(range(5001)))

    def test_constant_sample(self):
        with pytest.raises(ZeroVariance):
            shapiro_wilk([5.0] * 10)

    def test_smallest_approximate_size(self):
        r = shapiro_wilk([1.0, 2.0, 3.0, 4.0])
        want_w, want_p = sps.shapiro([1.0, 2.0, 3.0, 4.0])
        assert r.statistic == pytest.approx(want_w, abs=1e-7)
        assert r.p_value == pytest.approx(want_p, abs=1e-7)

    def test_extreme_small_sample_stays_defined(self):
        # (0, 0, 0, 1) is about the least normal-looking n=4 sample there
        # is; W bottoms out near 0.63 and the Royston transform must hold
        r = shapiro_wilk([0.0, 0.0, 0.0, 1.0])
        want_w, want_p = sps.shapiro([0.0, 0.0, 0.0, 1.0])
        assert r.statistic == pytest.approx(want_w, abs=1e-7)
        assert r.p_value == pytest.approx(want_p, abs=1e-7)


class TestEffectsAndAnova:
    def test_effects_worked_example(self):
        eff = fit_effects(table((1.0, 2.0), (3.0, 4.0)))
        assert eff.grand_mean == 2.5
        assert eff.group_means == (1.5, 3.5)
        assert eff.effects == (-1.0, 1.0)
        assert eff.residuals == ((-0.5, 0.5), (-0.5, 0.5))

    def test_effects_identities(self):
        rng = random.Random(4)
        t = table(
            [rng.gauss(5, 2) for _ in range(7)],
            [rng.gauss(6, 2) for _ in range(5)],
            [rng.gauss(4, 2) for _ in range(9)],
        )
        eff = fit_effects(t)
        weighted = sum(n * a for n, a in zip(t.sizes, eff.effects))
        assert weighted == pytest.approx(0.0, abs=1e-9)
        for res in eff.residuals:
            assert sum(res) == pytest.approx(0.0, abs=1e-9)

    def test_anova_worked_example(self):
        r = one_way_anova(table((1.0, 2.0), (3.0, 4.0)))
        assert r.statistic == pytest.approx(8.0, abs=1e-12)
        assert r.df == (1, 2)

    def test_anova_against_scipy(self):
        rng = random.Random(8)
        for _ in range(30):
            groups = [
                [rng.gauss(rng.uniform(0, 3), 1.0) for _ in range(rng.randint(3, 12))]
                for _ in range(rng.randint(2, 5))
            ]
            got = one_way_anova(table(*groups))
            want = sps.f_oneway(*groups)
            assert got.statistic == pytest.approx(want.statistic, rel=1e-10)
            assert got.p_value == pytest.approx(want.pvalue, rel=1e-8, abs=1e-12)

    def test_f_invariant_under_affine_rescaling(self):
        groups = ([0.71, 0.74, 0.69], [0.80, 0.82, 0.78], [0.90, 0.88, 0.91])
        base = one_way_anova(table(*groups))
        scaled = one_way_anova(
            table(*[[100.0 * v - 17.0 for v in g] for g in groups])
        )
        assert scaled.statistic == pytest.approx(base.statistic, abs=1e-9)

    def test_f_equals_t_squared_for_two_groups(self):
        a = [0.41, 0.55, 0.48, 0.60, 0.52]
        b = [0.62, 0.71, 0.66, 0.59]
        f = one_way_anova(table(a, b))
        t = sps.ttest_ind(a, b, equal_var=True)
        assert f.statistic == pytest.approx(t.statistic**2, abs=1e-9)
        assert f.p_value == pytest.approx(t.pvalue, abs=1e-12)

    def test_zero_within_variance(self):
        with pytest.raises(ZeroWithinVariance):
            one_way_anova(table((1.0, 1.0), (2.0, 2.0)))


class TestKruskalWallis:
    def test_worked_example(self):
        r = kruskal_wallis(table((1.0, 2.0), (3.0, 4.0)))
        assert r.statistic == pytest.approx(2.4, abs=1e-12)
        assert r.df == (1.0,)

    def test_against_scipy(self):
        rng = random.Random(15)
        for _ in range(30):
            groups = [
                [round(rng.uniform(0, 5), 1) for _ in range(rng.randint(3, 10))]
                for _ in range(rng.randint(2, 4))
            ]
            if min(v for g in groups for v in g) == max(v for g in groups for v in g):
                continue
            got = kruskal_wallis(table(*groups))
            want = sps.kruskal(*groups)
            assert got.statistic == pytest.approx(want.statistic, rel=1e-10)
            assert got.p_value == pytest.approx(want.pvalue, rel=1e-8, abs=1e-12)

    def test_ties_are_tie_corrected(self):
        # heavy ties: rounding to one decimal guarantees duplicate values
        groups = ([1.0, 1.0, 2.0], [2.0, 3.0, 3.0], [1.0, 3.0, 2.0])
        got = kruskal_wallis(table(*groups))
        want = sps.kruskal(*groups)
        assert got.statistic == pytest.approx(want.statistic, rel=1e-12)

    def test_monotone_invariance(self):
        groups = ([0.3, 0.6, 0.2], [0.9, 1.2, 0.8], [0.5, 0.4, 0.7])
        base = kruskal_wallis(table(*groups))
        warped = kruskal_wallis(
            table(*[[math.exp(3.0 * v) for v in g] for g in groups])
        )
        assert warped.statistic == base.statistic
        assert warped.p_value == base.p_value

    def test_all_equal(self):
        with pytest.raises(AllValuesEqual):
            kruskal_wallis(table((2.0, 2.0), (2.0, 2.0)))


class TestTukey:
    def make_table(self, seed=21, k=3, lo=4, hi=8):
        rng = random.Random(seed)
        return [
            [rng.gauss(rng.uniform(0, 2), 1.0) for _ in range(rng.randint(lo, hi))]
            for _ in range(k)
        ]

    def test_against_scipy(self):
        for seed in (21, 22, 23):
            groups = self.make_table(seed=seed)
            rows = tukey_hsd(table(*groups), alpha=0.05)
            want = sps.tukey_hsd(*groups)
            ci = want.confidence_interval(0.95)
            k = len(groups)
            idx = 0
            for i in range(k):
                for j in range(i + 1, k):
                    row = rows[idx]
                    assert row.level_a == f"g{j}" and row.level_b == f"g{i}"
                    assert row.difference == pytest.approx(want.statistic[j][i], abs=1e-12)
                    assert row.p_value == pytest.approx(want.pvalue[j][i], abs=1e-7)
                    assert row.lower_cl == pytest.approx(ci.low[j][i], abs=1e-6)
                    assert row.upper_cl == pytest.approx(ci.high[j][i], abs=1e-6)
                    idx += 1
            assert idx == len(rows) == k * (k - 1) // 2

    def test_q_statistic_definition(self):
        groups = self.make_table(seed=30)
        rows = tukey_hsd(table(*groups))
        for row in rows:
            assert row.statistic == pytest.approx(
                abs(row.difference) * math.sqrt(2.0) / row.std_err_diff
            )

    def test_significance_flag_matches_alpha(self):
        groups = ([1.0, 1.1, 0.9], [1.05, 1.0, 1.1], [5.0, 5.1, 4.9])
        rows = tukey_hsd(table(*groups), alpha=0.05)
        flags = {(r.level_a, r.level_b): r.significant_at_alpha for r in rows}
        assert not flags[("g1", "g0")]
        assert flags[("g2", "g0")] and flags[("g2", "g1")]

    def test_zero_mse_rejected(self):
        with pytest.raises(ZeroWithinVariance):
            tukey_hsd(table((1.0, 1.0), (2.0, 2.0)))


class TestDunn:
    # three 5-observation groups over the distinct pooled values 1..15;
    # with no ties the rank of each value is the value itself
    FIXTURE_A = (
        ("S1", (5.0, 6.0, 10.0, 13.0, 15.0)),   # rank mean 9.8
        ("S2", (7.0, 8.0, 11.0, 12.0, 14.0)),   # rank mean 10.4
        ("S3", (1.0, 2.0, 3.0, 4.0, 9.0)),      # rank mean 3.8
    )

    def test_closed_form_balanced_stderr(self):
        rows = dunn_test(ObservationTable(groups=self.FIXTURE_A))
        want_se = math.sqrt(15 * 16 / 12 * (1 / 5 + 1 / 5))  # sqrt(8)
        for row in rows:
            assert row.std_err_diff == pytest.approx(want_se, abs=1e-12)

    def test_rank_mean_differences(self):
        rows = dunn_test(ObservationTable(groups=self.FIXTURE_A))
        by_pair = {(r.level_a, r.level_b): r for r in rows}
        assert by_pair[("S2", "S1")].difference == pytest.approx(0.6)
        assert by_pair[("S3", "S1")].difference == pytest.approx(-6.0)
        assert by_pair[("S3", "S2")].difference == pytest.approx(-6.6)

    def test_z_and_bonferroni_p(self):
        rows = dunn_test(ObservationTable(groups=self.FIXTURE_A))
        by_pair = {(r.level_a, r.level_b): r for r in rows}
        se = math.sqrt(8.0)
        for pair, diff in ((("S2", "S1"), 0.6), (("S3", "S1"), -6.0)):
            row = by_pair[pair]
            z = diff / se
            assert row.statistic == pytest.approx(z, abs=1e-12)
            want_p = min(1.0, 3.0 * 2.0 * sps.norm.cdf(-abs(z)))
            assert row.p_value == pytest.approx(want_p, abs=1e-12)

    def test_unadjusted_mode(self):
        raw = dunn_test(ObservationTable(groups=self.FIXTURE_A), adjustment="none")
        adj = dunn_test(ObservationTable(groups=self.FIXTURE_A), adjustment="bonferroni")
        for r, a in zip(raw, adj):
            assert a.p_value == pytest.approx(min(1.0, 3.0 * r.p_value), abs=1e-12)

    def test_tie_correction_term(self):
        # duplicate values shrink the rank variance
        t = table((1.0, 2.0, 2.0), (2.0, 3.0, 4.0))
        rows = dunn_test(t, adjustment="none")
        n = 6
        tie = 3**3 - 3  # one run of three tied values
        base_var = n * (n + 1) / 12 - tie / (12 * (n - 1))
        want_se = math.sqrt(base_var * (1 / 3 + 1 / 3))
        assert rows[0].std_err_diff == pytest.approx(want_se, abs=1e-12)

    def test_all_equal(self):
        with pytest.raises(AllValuesEqual):
            dunn_test(table((3.0, 3.0), (3.0, 3.0)))

    def test_unknown_adjustment(self):
        with pytest.raises(ValueError):
            dunn_test(ObservationTable(groups=self.FIXTURE_A), adjustment="holm")


class TestComparePipeline:
    def normal_groups(self, seed=11):
        rng = random.Random(seed)
        return [
            [rng.gauss(mu, 0.5) for _ in range(8)] for mu in (1.0, 1.2, 3.0)
        ]

    def test_parametric_branch(self):
        report = compare_pipeline(table(*self.normal_groups()), alpha=0.05)
        assert report.branch == PARAMETRIC
        assert report.omnibus.method == "one-way-anova"
        assert len(report.posthoc) == 3
        assert report.posthoc[0].lower_cl is not None
        assert set(report.normality) == {"pooled"}

    def test_nonparametric_branch_on_gross_outlier(self):
        groups = (
            [0.10, 0.11, 0.12, 0.13, 50.0],
            [0.20, 0.21, 0.22, 0.23, 0.24],
            [0.30, 0.31, 0.32, 0.33, 0.34],
        )
        report = compare_pipeline(table(*groups), alpha=0.05)
        assert report.branch == NONPARAMETRIC
        assert report.omnibus.method == "kruskal-wallis"
        assert report.posthoc[0].lower_cl is None

    def test_per_group_scope_can_differ_from_pooled(self):
        # two tight normal clusters far apart: pooled sample is bimodal
        # (fails), each group is clean (passes)
        rng = random.Random(3)
        groups = (
            [rng.gauss(0.0, 0.1) for _ in range(10)],
            [rng.gauss(10.0, 0.1) for _ in range(10)],
        )
        pooled = compare_pipeline(table(*groups), alpha=0.05, normality_scope="pooled")
        per_group = compare_pipeline(
            table(*groups), alpha=0.05, normality_scope="per-group"
        )
        assert pooled.branch == NONPARAMETRIC
        assert per_group.branch == PARAMETRIC
        assert set(per_group.normality) == {"g0", "g1"}

    def test_posthoc_gating(self):
        rng = random.Random(7)
        # indistinguishable groups: omnibus p is large
        groups = ([rng.gauss(1.0, 0.3) for _ in range(6)] for _ in range(3))
        t = table(*groups)
        always = compare_pipeline(t, alpha=0.05, posthoc="always")
        gated = compare_pipeline(t, alpha=0.05, posthoc="on-significant")
        assert always.omnibus.p_value > 0.05
        assert len(always.posthoc) == 3
        assert gated.posthoc == ()

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            compare_pipeline(table((1.0, 2.0), (3.0, 4.0)), alpha=0.0)

    @pytest.mark.parametrize("option", [{"posthoc": "bogus"}, {"normality_scope": "bogus"}])
    def test_options_are_checked_before_any_test_runs(self, monkeypatch, option):
        def no_test(*args):
            raise AssertionError("shapiro_wilk ran before the options were checked")

        monkeypatch.setattr(stats, "shapiro_wilk", no_test)
        with pytest.raises(ValueError, match="unknown"):
            compare_pipeline(table(*self.normal_groups()), **option)

    def test_report_to_dict_shape(self):
        report = compare_pipeline(table(*self.normal_groups()), alpha=0.05)
        d = report_to_dict(report)
        assert d["branch"] == report.branch
        assert d["alpha"] == 0.05
        assert len(d["posthoc"]) == 3
        assert {"statistic", "p_value", "df", "method"} <= set(d["omnibus"])


class TestObservationCsv:
    CSV = (
        "run_id,metric,group,value\n"
        "r1,map30,320,0.71\n"
        "r1,f1max,320,0.70\n"
        "r2,map30,320,0.74\n"
        "r1,map30,416,0.80\n"
        "r2,map30,416,0.82\n"
        "r1,map30,512,0.90\n"
        "r2,map30,512,0.88\n"
    )

    def test_loads_one_metric(self):
        t = load_observation_table(self.CSV, "map30")
        assert t.labels == ("320", "416", "512")  # first-appearance order
        assert t.groups[0][1] == (0.71, 0.74)

    def test_extra_columns_ignored_and_header_by_name(self):
        text = (
            "value,group,metric,extra\n"
            "0.1,a,m,x\n0.2,a,m,x\n0.3,b,m,x\n0.4,b,m,x\n"
        )
        t = load_observation_table(text, "m")
        assert t.labels == ("a", "b")

    def test_missing_metric(self):
        with pytest.raises(EmptyDataset):
            load_observation_table(self.CSV, "ap95")

    def test_missing_column(self):
        with pytest.raises(MalformedLine):
            load_observation_table("metric,value\nm,0.5\n", "m")

    def test_bad_value(self):
        with pytest.raises(MalformedLine):
            load_observation_table(
                "metric,group,value\nm,a,oops\nm,a,1\nm,b,1\nm,b,2\n", "m"
            )

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            load_observation_table("", "m")


    def test_parse_all_metrics(self):
        by_metric = parse_observations(self.CSV)
        assert list(by_metric) == ["map30", "f1max"]
        assert list(by_metric["map30"]) == ["320", "416", "512"]
        assert by_metric["f1max"] == {"320": [0.70]}

    def test_filter_skips_other_metrics_unparsed(self):
        text = "metric,group,value\nm,a,1\nm,a,2\nother,a,oops\nm,b,3\nm,b,4\n"
        assert parse_observations(text, "m") == {"m": {"a": [1.0, 2.0], "b": [3.0, 4.0]}}
        with pytest.raises(MalformedLine) as err:
            parse_observations(text)
        assert err.value.line_no == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, value):
        with pytest.raises(MalformedLine):
            load_observation_table(f"metric,group,value\nm,a,1\nm,a,{value}\nm,b,1\nm,b,2\n", "m")

    def test_errors_give_the_line_of_the_text(self):
        with pytest.raises(MalformedLine, match="line 4: bad value 'abc'"):
            parse_observations("metric,group,value\n\n\nm,a,abc\n")
        with pytest.raises(MalformedLine, match="line 2: header"):
            parse_observations("\nmetric,group\n")

    def test_value_magnitude_is_bounded(self):
        text = "metric,group,value\nm,a,1e150\nm,a,-1e150\nm,b,0\nm,b,1\n"
        assert parse_observations(text)["m"]["a"] == [1e150, -1e150]
        with pytest.raises(MalformedLine, match="line 3: value '1.1e150'"):
            parse_observations("metric,group,value\nm,a,1\nm,a,1.1e150\n")

    def test_unreadable_csv(self):
        with pytest.raises(FormatError):
            parse_observations('metric,group,value\nm,a,"' + "x" * 200_000 + '"\n')


class TestPosthocCsv:
    def test_parametric_columns(self):
        rng = random.Random(5)
        groups = [[rng.gauss(m, 0.4) for _ in range(6)] for m in (1.0, 1.5, 2.5)]
        report = compare_pipeline(table(*groups), alpha=0.05)
        assert report.branch == PARAMETRIC
        lines = write_posthoc_csv(report).strip().split("\n")
        assert lines[0] == "level_a,level_b,difference,std_err_diff,lower_cl,upper_cl,p_value,significant"
        assert len(lines) == 4

    def test_nonparametric_columns(self):
        groups = (
            [0.10, 0.11, 0.12, 0.13, 50.0],
            [0.20, 0.21, 0.22, 0.23, 0.24],
            [0.30, 0.31, 0.32, 0.33, 0.34],
        )
        report = compare_pipeline(table(*groups), alpha=0.05)
        assert report.branch == NONPARAMETRIC
        lines = write_posthoc_csv(report).strip().split("\n")
        assert lines[0] == "level_a,level_b,score_mean_difference,std_err_diff,z,p_value,significant"
        assert len(lines) == 4
