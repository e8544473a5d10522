"""Group comparison battery for metric observations.

The pipeline mirrors a common agronomy workflow: Shapiro-Wilk normality
gate, then either one-way ANOVA with Tukey HSD post-hoc (parametric
branch) or Kruskal-Wallis with Dunn/Bonferroni post-hoc (nonparametric
branch). All tail probabilities come from the internal `distributions`
module.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

from . import distributions as dist
from .dataio import read_csv_table, write_csv_table
from .errors import (
    AllValuesEqual,
    EmptyDataset,
    MalformedLine,
    TooFewSamples,
    TooManySamples,
    ZeroVariance,
    ZeroWithinVariance,
)

PARAMETRIC = "parametric"
NONPARAMETRIC = "nonparametric"
# where Shapiro-Wilk runs, and when the post-hoc table is built
NORMALITY_SCOPES = ("pooled", "per-group")
POSTHOC_MODES = ("always", "on-significant")
# the battery squares and sums deviations; within this magnitude the sums
# over 5000 observations stay finite
MAX_OBSERVATION = 1e150


@dataclass(frozen=True)
class ObservationTable:
    """Ordered groups of metric observations (label, values)."""

    groups: tuple[tuple[str, tuple[float, ...]], ...]

    def __post_init__(self):
        norm = tuple((str(label), tuple(float(v) for v in obs)) for label, obs in self.groups)
        if len(norm) < 2:
            raise TooFewSamples("need at least 2 groups")
        labels = [label for label, _ in norm]
        if len(set(labels)) != len(labels):
            raise ValueError("group labels must be unique")
        for label, obs in norm:
            if len(obs) < 2:
                raise TooFewSamples(f"group {label!r} has {len(obs)} observations, need >= 2")
            if not all(math.isfinite(v) for v in obs):
                raise ValueError(f"group {label!r} contains non-finite values")
        object.__setattr__(self, "groups", norm)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.groups)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(obs) for _, obs in self.groups)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def pooled(self) -> tuple[float, ...]:
        return tuple(v for _, obs in self.groups for v in obs)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    df: tuple[float, ...]
    method: str

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")


@dataclass(frozen=True)
class EffectsDecomposition:
    """Means-model split Y_ij = mu + alpha_i + eps_ij."""

    labels: tuple[str, ...]
    grand_mean: float
    group_means: tuple[float, ...]
    effects: tuple[float, ...]
    residuals: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class PairwiseComparison:
    """One post-hoc row. For the Tukey branch `statistic` is the
    studentized-range q and the confidence-limit columns are populated;
    for the Dunn branch `statistic` is the Z score and the limits are None.
    """

    level_a: str
    level_b: str
    difference: float
    std_err_diff: float
    statistic: float
    p_value: float
    significant_at_alpha: bool
    lower_cl: Optional[float] = None
    upper_cl: Optional[float] = None


@dataclass(frozen=True)
class ComparisonReport:
    normality: dict[str, TestResult]
    branch: str
    omnibus: TestResult
    posthoc: tuple[PairwiseComparison, ...]
    alpha: float


def _blom_scores(n: int) -> list[float]:
    return [dist.normal_ppf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]


# Royston (1992/1995) polynomial corrections for the extreme coefficients,
# ascending powers of u = 1/sqrt(n) starting at u^1
_C1 = (0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_C2 = (0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
# null-distribution moments of the transformed statistic
_C3 = (0.5440, -0.39978, 0.025054, -6.714e-4)      # mu, 4 <= n <= 11 (poly in n)
_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)     # log sigma, 4 <= n <= 11
_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)    # mu, n >= 12 (poly in ln n)
_C6 = (-0.4803, -0.082676, 0.0030302)              # log sigma, n >= 12


def _poly(coeffs: Sequence[float], x: float) -> float:
    return sum(c * x**i for i, c in enumerate(coeffs))


def shapiro_wilk(samples: Sequence[float]) -> TestResult:
    """W statistic and Royston-approximation p-value for 3 <= n <= 5000,
    the range of the AS R94 algorithm.

    The coefficient vector comes from Blom plotting-position scores with
    polynomial end corrections; n = 3 has the exact arcsine p-value.
    """
    x = sorted(float(v) for v in samples)
    n = len(x)
    if n < 3:
        raise TooFewSamples(f"need at least 3 observations, got {n}")
    if n > 5000:
        raise TooManySamples(f"approximation holds up to n = 5000, got {n}")
    if not all(math.isfinite(v) for v in x):
        raise ValueError("observations must be finite")
    mean = sum(x) / n
    ssd = sum((v - mean) ** 2 for v in x)
    if ssd == 0.0 or x[0] == x[-1]:
        raise ZeroVariance("all observations are equal; W is undefined")

    m = _blom_scores(n)
    msq = sum(v * v for v in m)
    if n == 3:
        a = [-math.sqrt(0.5), 0.0, math.sqrt(0.5)]
    else:
        u = 1.0 / math.sqrt(n)
        c = [v / math.sqrt(msq) for v in m]
        a_n = c[-1] + u * _poly(_C1, u)
        if n > 5:
            a_n1 = c[-2] + u * _poly(_C2, u)
            phi = (msq - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (
                1.0 - 2.0 * a_n**2 - 2.0 * a_n1**2
            )
            tail = 2
        else:
            a_n1 = None
            phi = (msq - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n**2)
            tail = 1
        root = math.sqrt(phi)
        a = [v / root for v in m]
        a[-1], a[0] = a_n, -a_n
        if tail == 2:
            a[-2], a[1] = a_n1, -a_n1

    w_num = sum(ai * xi for ai, xi in zip(a, x)) ** 2
    w = min(w_num / ssd, 1.0)

    if n == 3:
        # exact small-sample tail: (6/pi) * (asin(sqrt W) - asin(sqrt 0.75))
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
        return TestResult(statistic=w, p_value=p, df=(n,), method="shapiro-wilk")

    one_minus = max(1.0 - w, 1e-15)
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        if gamma - math.log(one_minus) <= 0.0:
            # the log-log transform is undefined here, which takes a W below
            # anything a real n=4 sample can produce; saturate at the limit
            # of the transform (wt -> +inf, upper tail -> 0)
            return TestResult(statistic=w, p_value=0.0, df=(n,), method="shapiro-wilk")
        wt = -math.log(gamma - math.log(one_minus))
        mu = _poly(_C3, n)
        sigma = math.exp(_poly(_C4, n))
    else:
        ln_n = math.log(n)
        wt = math.log(one_minus)
        mu = _poly(_C5, ln_n)
        sigma = math.exp(_poly(_C6, ln_n))
    p = dist.normal_sf((wt - mu) / sigma)
    return TestResult(statistic=w, p_value=min(max(p, 0.0), 1.0), df=(n,), method="shapiro-wilk")


def fit_effects(table: ObservationTable) -> EffectsDecomposition:
    """Weighted grand mean, group means, treatment effects and residuals.

    By construction sum(n_i * alpha_i) = 0 and each group's residuals sum
    to zero.
    """
    grand = sum(table.pooled()) / table.total
    means = tuple(sum(obs) / len(obs) for _, obs in table.groups)
    effects = tuple(m - grand for m in means)
    residuals = tuple(
        tuple(v - m for v in obs) for (_, obs), m in zip(table.groups, means)
    )
    return EffectsDecomposition(
        labels=table.labels,
        grand_mean=grand,
        group_means=means,
        effects=effects,
        residuals=residuals,
    )


def _sums_of_squares(table: ObservationTable) -> tuple[float, float]:
    eff = fit_effects(table)
    ssb = sum(n * a * a for n, a in zip(table.sizes, eff.effects))
    ssw = sum(sum(r * r for r in res) for res in eff.residuals)
    return ssb, ssw


def one_way_anova(table: ObservationTable) -> TestResult:
    """F test of equal group means; upper-tail p at (k-1, N-k)."""
    k = len(table.groups)
    n_total = table.total
    ssb, ssw = _sums_of_squares(table)
    if ssw == 0.0:
        raise ZeroWithinVariance("no within-group variance; F is undefined")
    f_stat = (ssb / (k - 1)) / (ssw / (n_total - k))
    p = dist.f_sf(f_stat, k - 1, n_total - k)
    return TestResult(
        statistic=f_stat, p_value=p, df=(k - 1, n_total - k), method="one-way-anova"
    )


def _joint_ranks(table: ObservationTable) -> tuple[list[list[float]], float]:
    """Average ranks of the pooled observations, per group, plus the tie
    term sum(t^3 - t) over tied runs."""
    indexed = []
    for gi, (_, obs) in enumerate(table.groups):
        for v in obs:
            indexed.append((v, gi))
    indexed.sort(key=lambda t: t[0])
    n = len(indexed)
    ranks: list[list[float]] = [[] for _ in table.groups]
    tie_term = 0.0
    i = 0
    while i < n:
        j = i
        while j < n and indexed[j][0] == indexed[i][0]:
            j += 1
        avg_rank = (i + 1 + j) / 2.0  # mean of ranks i+1 .. j
        run = j - i
        if run > 1:
            tie_term += run**3 - run
        for pos in range(i, j):
            ranks[indexed[pos][1]].append(avg_rank)
        i = j
    return ranks, tie_term


def kruskal_wallis(table: ObservationTable) -> TestResult:
    """Rank-based k-group test with average-rank ties and tie-corrected H;
    p from the chi-square upper tail at k-1 df."""
    pooled = table.pooled()
    if min(pooled) == max(pooled):
        raise AllValuesEqual("all observations are equal; ranks are degenerate")
    n = table.total
    k = len(table.groups)
    ranks, tie_term = _joint_ranks(table)
    h = 12.0 / (n * (n + 1)) * sum(
        len(r) * (sum(r) / len(r) - (n + 1) / 2.0) ** 2 for r in ranks
    )
    h /= 1.0 - tie_term / (n**3 - n)
    p = dist.chi2_sf(h, k - 1)
    return TestResult(statistic=h, p_value=p, df=(float(k - 1),), method="kruskal-wallis")


def _pairs(k: int):
    for i in range(k):
        for j in range(i + 1, k):
            yield j, i  # row order: (2nd level, 1st level), (3rd, 1st), (3rd, 2nd)...


def tukey_hsd(table: ObservationTable, alpha: float = 0.05) -> list[PairwiseComparison]:
    """All-pairs honestly-significant-difference comparisons.

    Each row reports the mean difference, its standard error
    sqrt(MSE * (1/n_i + 1/n_j)), the studentized-range statistic
    q = |diff| * sqrt(2) / stderr, the upper-tail p at (k, N-k), and the
    simultaneous confidence limits diff +- q_crit * stderr / sqrt(2).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    k = len(table.groups)
    n_total = table.total
    _, ssw = _sums_of_squares(table)
    if ssw == 0.0:
        raise ZeroWithinVariance("no within-group variance; MSE is 0")
    mse = ssw / (n_total - k)
    means = [sum(obs) / len(obs) for _, obs in table.groups]
    sizes = table.sizes
    labels = table.labels
    df_err = n_total - k
    q_crit = dist.studentized_range_crit(alpha, k, float(df_err))
    rows = []
    for a_idx, b_idx in _pairs(k):
        diff = means[a_idx] - means[b_idx]
        se = math.sqrt(mse * (1.0 / sizes[a_idx] + 1.0 / sizes[b_idx]))
        q = abs(diff) * math.sqrt(2.0) / se
        p = dist.studentized_range_sf(q, k, float(df_err))
        margin = q_crit * se / math.sqrt(2.0)
        rows.append(
            PairwiseComparison(
                level_a=labels[a_idx],
                level_b=labels[b_idx],
                difference=diff,
                std_err_diff=se,
                statistic=q,
                p_value=p,
                significant_at_alpha=p < alpha,
                lower_cl=diff - margin,
                upper_cl=diff + margin,
            )
        )
    return rows


def dunn_test(
    table: ObservationTable,
    alpha: float = 0.05,
    adjustment: Literal["bonferroni", "none"] = "bonferroni",
) -> list[PairwiseComparison]:
    """All-pairs rank comparisons on the joint average ranks.

    Z = (rank mean difference) / sqrt[(N(N+1)/12 - T) * (1/n_i + 1/n_j)]
    with tie term T = sum(t^3 - t) / (12(N-1)); two-sided normal p, then
    Bonferroni-multiplied by the number of pairs (capped at 1).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if adjustment not in ("bonferroni", "none"):
        raise ValueError(f"unknown adjustment {adjustment!r}")
    pooled = table.pooled()
    if min(pooled) == max(pooled):
        raise AllValuesEqual("all observations are equal; ranks are degenerate")
    n = table.total
    k = len(table.groups)
    ranks, tie_term = _joint_ranks(table)
    rank_means = [sum(r) / len(r) for r in ranks]
    sizes = table.sizes
    labels = table.labels
    base_var = n * (n + 1) / 12.0 - tie_term / (12.0 * (n - 1))
    n_pairs = k * (k - 1) // 2
    rows = []
    for a_idx, b_idx in _pairs(k):
        diff = rank_means[a_idx] - rank_means[b_idx]
        se = math.sqrt(base_var * (1.0 / sizes[a_idx] + 1.0 / sizes[b_idx]))
        z = diff / se
        p = 2.0 * dist.normal_cdf(-abs(z))
        if adjustment == "bonferroni":
            p = min(1.0, p * n_pairs)
        rows.append(
            PairwiseComparison(
                level_a=labels[a_idx],
                level_b=labels[b_idx],
                difference=diff,
                std_err_diff=se,
                statistic=z,
                p_value=p,
                significant_at_alpha=p < alpha,
            )
        )
    return rows


def compare_pipeline(
    table: ObservationTable,
    alpha: float = 0.05,
    normality_scope: str = "pooled",
    posthoc: str = "always",
) -> ComparisonReport:
    """Normality-gated group comparison.

    Shapiro-Wilk runs on the pooled observations (default) or per group;
    when every tested sample passes at alpha the parametric branch (ANOVA +
    Tukey) runs, otherwise the nonparametric branch (Kruskal-Wallis +
    Dunn/Bonferroni). The post-hoc table is emitted regardless of the
    omnibus outcome unless posthoc="on-significant".
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if normality_scope not in NORMALITY_SCOPES:
        raise ValueError(f"unknown normality scope {normality_scope!r}")
    if posthoc not in POSTHOC_MODES:
        raise ValueError(f"unknown posthoc mode {posthoc!r}")
    if normality_scope == "pooled":
        normality = {"pooled": shapiro_wilk(table.pooled())}
    else:
        normality = {label: shapiro_wilk(obs) for label, obs in table.groups}
    parametric = all(r.p_value >= alpha for r in normality.values())
    if parametric:
        omnibus = one_way_anova(table)
    else:
        omnibus = kruskal_wallis(table)
    if posthoc == "always" or omnibus.p_value < alpha:
        pairs = tukey_hsd(table, alpha) if parametric else dunn_test(table, alpha)
    else:
        pairs = []
    return ComparisonReport(
        normality=normality,
        branch=PARAMETRIC if parametric else NONPARAMETRIC,
        omnibus=omnibus,
        posthoc=tuple(pairs),
        alpha=alpha,
    )


def parse_observations(
    content: str, metric: Optional[str] = None
) -> dict[str, dict[str, list[float]]]:
    """Observation CSV rows as metric -> group -> values.

    Requires columns metric, group, value (other extra columns are
    ignored); metrics and groups keep the order of first appearance. Values
    must be finite, of magnitude at most MAX_OBSERVATION. With a run_id
    column, a (run_id, metric) pair that an earlier row holds is refused, so
    no run counts twice. With `metric`, rows of other metrics are skipped
    without being parsed.
    """
    header_line, header, rows = read_csv_table(content, "observation file")
    if not header:
        raise EmptyDataset("observation file has no rows")
    try:
        m_col = header.index("metric")
        g_col = header.index("group")
        v_col = header.index("value")
    except ValueError:
        raise MalformedLine(header_line, f"header {header} lacks metric/group/value") from None
    r_col = header.index("run_id") if "run_id" in header else None
    seen: set[tuple[str, str]] = set()
    by_metric: dict[str, dict[str, list[float]]] = {}
    for line_no, row in rows:
        name = row[m_col].strip()
        if metric is not None and name != metric:
            continue
        if r_col is not None:
            run = (row[r_col].strip(), name)
            if run in seen:
                raise MalformedLine(line_no, f"run id {run[0]!r} already has a {name} row")
            seen.add(run)
        try:
            value = float(row[v_col])
        except ValueError:
            raise MalformedLine(line_no, f"bad value {row[v_col]!r}") from None
        if not abs(value) <= MAX_OBSERVATION:
            raise MalformedLine(line_no, f"value {row[v_col]!r} not within ±{MAX_OBSERVATION:g}")
        by_metric.setdefault(name, {}).setdefault(row[g_col].strip(), []).append(value)
    return by_metric


def load_observation_table(content: str, metric: str) -> ObservationTable:
    """Build a table for one metric from observation CSV rows (see
    `parse_observations`); group order follows first appearance in the file.
    """
    groups = parse_observations(content, metric).get(metric)
    if not groups:
        raise EmptyDataset(f"no observations for metric {metric!r}")
    return ObservationTable(groups=tuple((g, tuple(v)) for g, v in groups.items()))


def report_to_dict(report: ComparisonReport) -> dict:
    """JSON-ready view of a comparison report."""
    return dataclasses.asdict(report)


def write_posthoc_csv(report: ComparisonReport) -> str:
    """Pairwise table with branch-appropriate columns.

    Parametric rows carry difference / stderr / confidence limits / p;
    nonparametric rows carry the rank-mean difference / stderr / Z / p.
    """
    if report.branch == PARAMETRIC:
        rows = [("level_a", "level_b", "difference", "std_err_diff",
                 "lower_cl", "upper_cl", "p_value", "significant")]
        rows += [(c.level_a, c.level_b, f"{c.difference:.6f}", f"{c.std_err_diff:.6f}",
                  f"{c.lower_cl:.6f}", f"{c.upper_cl:.6f}", f"{c.p_value:.6f}",
                  int(c.significant_at_alpha)) for c in report.posthoc]
    else:
        rows = [("level_a", "level_b", "score_mean_difference", "std_err_diff",
                 "z", "p_value", "significant")]
        rows += [(c.level_a, c.level_b, f"{c.difference:.6f}", f"{c.std_err_diff:.6f}",
                  f"{c.statistic:.6f}", f"{c.p_value:.6f}", int(c.significant_at_alpha))
                 for c in report.posthoc]
    return write_csv_table(rows)
