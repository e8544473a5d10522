"""Tail probabilities used by the statistical tests, implemented internally.

Normal, chi-square, F and studentized-range distributions are evaluated
with classical series / continued-fraction expansions plus, for the
studentized range, direct numeric integration of its CDF. Target accuracy
is 1e-6 absolute on p-values, which is far tighter than the 4-decimal
tables the results are compared against.

The studentized-range CDF averages the CDF of the range of k standard
normals over a scale grid of 288 points. That unit range CDF depends on k
alone, so it is sampled once per k: a polynomial through it at Chebyshev
points of [0, 18] (degree 64, 128 or 256, the first within 1e-11 of the
quadrature at the check points, else the quadrature itself). Measured on a
dense grid, the accepted tables lie within 2e-15 of the quadrature for
k <= 5 and within 8e-13 for k up to 300. The table is evaluated
barycentrically at min(q u, 18): the range CDF is 1 from 18 on, and the
clamp keeps the polynomial from extrapolating. A studentized-range
evaluation then costs a 288-point interpolation of about 0.2 ms rather
than a 288 x 192 quadrature of about 3 ms.

The quadrature needs the normal CDF on a whole matrix of points. It comes
from a numpy port of W. J. Cody's rational Chebyshev erfc (Math. Comp. 23,
1969; the algorithm behind cephes ``ndtr``), which stays within 2e-15
relative of ``math.erfc`` wherever erfc exceeds 1e-300. The scalar
``normal_cdf``/``normal_sf`` keep using ``math.erfc``. Critical values are
found by Brent's bracketed root finder (Algorithms for Minimization without
Derivatives, 1973).

Nothing here depends on a statistics runtime; the only imports are math,
numpy and the package's error types.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache, partial
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import NoCriticalValue

_STD_NORMAL = NormalDist()
_EPS = 1e-15
_EPS_DOUBLE = sys.float_info.epsilon
_MAX_ITER = 300

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cody's CALERF coefficients (netlib specfun), one rational per region:
# erf on |x| <= 0.46875, erfc on (0.46875, 4] and erfc on (4, _ERFC_ZERO)
_CODY_A = (3.16112374387056560e00, 1.13864154151050156e02,
           3.77485237685302021e02, 3.20937758913846947e03,
           1.85777706184603153e-1)
_CODY_B = (2.36012909523441209e01, 2.44024637934444173e02,
           1.28261652607737228e03, 2.84423683343917062e03)
_CODY_C = (5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02,
           8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03,
           2.15311535474403846e-8)
_CODY_D = (1.57449261107098347e01, 1.17693950891312499e02,
           5.37181101862009858e02, 1.62138957456669019e03,
           3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_CODY_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2,
           6.58749161529837803e-4, 1.63153871373020978e-2)
_CODY_Q = (2.56852019228982242e00, 1.87295284992346725e00,
           5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1
_ERFC_ZERO = 26.543  # erfc underflows to 0 from here on


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_sf(x: float) -> float:
    return 0.5 * math.erfc(x / _SQRT2)


def normal_ppf(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return _STD_NORMAL.inv_cdf(p)


def _cody_rational(t: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """Cody's nested rational form: the numerator starts from its last
    coefficient, the denominator is monic, both run over the rest in order."""
    top = num[-1] * t
    bottom = t.copy()
    for a, b in zip(num[:-2], den[:-1]):
        top += a
        top *= t
        bottom += b
        bottom *= t
    top += num[-2]
    bottom += den[-1]
    top /= bottom
    return top


def _exp_neg_square(y: np.ndarray) -> np.ndarray:
    """exp(-y*y), with y split at trunc(16y)/16 so that the rounding error
    of y*y is not amplified by the exponential."""
    head = np.trunc(y * 16.0) / 16.0
    rest = np.exp(-(y - head) * (y + head))
    head *= head
    np.negative(head, out=head)
    np.exp(head, out=head)
    head *= rest
    return head


def _erfc(x: np.ndarray) -> np.ndarray:
    """Elementwise erfc by Cody's rational Chebyshev approximations."""
    x = np.asarray(x, dtype=np.float64)
    y = np.abs(x)
    # NaN stays NaN; erfc(y) underflows to 0 from _ERFC_ZERO on
    out = np.where(y >= _ERFC_ZERO, 0.0, np.nan)
    near = y <= 0.46875
    if near.any():
        xn = x[near]
        out[near] = 1.0 - xn * _cody_rational(xn * xn, _CODY_A, _CODY_B)
    mid = (y > 0.46875) & (y <= 4.0)
    if mid.any():
        ym = y[mid]
        out[mid] = _exp_neg_square(ym) * _cody_rational(ym, _CODY_C, _CODY_D)
    far = (y > 4.0) & (y < _ERFC_ZERO)
    if far.any():
        yf = y[far]
        inv_sq = 1.0 / (yf * yf)
        tail = inv_sq * _cody_rational(inv_sq, _CODY_P, _CODY_Q)
        out[far] = _exp_neg_square(yf) * ((_INV_SQRT_PI - tail) / yf)
    # erfc(-y) = 2 - erfc(y); the near region already used the signed x
    reflect = (x < 0.0) & ~near
    out[reflect] = 2.0 - out[reflect]
    return out


def _phi_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * _erfc(-x / _SQRT2)


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma by its power series (x < a+1)."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma by Lentz's continued fraction
    (x >= a+1)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(x: float, df: float) -> float:
    """Upper tail of the chi-square distribution."""
    if df <= 0:
        raise ValueError("df must be > 0")
    if x <= 0:
        return 1.0
    a, t = df / 2.0, x / 2.0
    if t < a + 1.0:
        return 1.0 - _lower_gamma_series(a, t)
    return _upper_gamma_cf(a, t)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_sf(x: float, d1: float, d2: float) -> float:
    """Upper tail of the F distribution with (d1, d2) degrees of freedom."""
    if d1 <= 0 or d2 <= 0:
        raise ValueError("degrees of freedom must be > 0")
    if x <= 0:
        return 1.0
    return betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x))


@lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _panel_grid(lo: float, hi: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights over [lo, hi]."""
    nodes, weights = _gauss_legendre(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


# the z-grid spans [-9, 9], so for w >= 18 every Phi(z - w) on it is below
# Phi(-9) ~ 1e-19: from here on the unit range CDF is 1 to double precision
_RANGE_SATURATES = 18.0


@lru_cache(maxsize=1)
def _z_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nodes z, weights, phi(z) and Phi(z) of the fixed grid over [-9, 9];
    built on first use, then shared read-only."""
    z, zw = _panel_grid(-9.0, 9.0, panels=8, order=24)
    phi = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    terms = (z, zw, phi, _phi_cdf(z))
    for arr in terms:
        arr.setflags(write=False)
    return terms


def _range_cdf_unit(w: np.ndarray, k: int) -> np.ndarray:
    """P(range of k iid standard normals < w) for each w >= 0.

    Evaluates k * int phi(z) [Phi(z) - Phi(z-w)]^(k-1) dz on a fixed
    composite Gauss-Legendre grid; phi is negligible beyond |z| = 9.
    """
    z, zw, phi, cdf_z = _z_grid()
    # (len(w), len(z)) matrix of Phi(z) - Phi(z - w)
    inner = cdf_z[None, :] - _phi_cdf(z[None, :] - w[:, None])
    np.clip(inner, 0.0, 1.0, out=inner)
    integrand = phi[None, :] * inner ** (k - 1)
    return k * (integrand @ zw)


# degrees tried for the table of the unit range CDF, and the largest error
# against _range_cdf_unit that a table may have at its check points
_RANGE_TABLE_DEGREES = (64, 128, 256)
_RANGE_TABLE_TOL = 1e-11


def _barycentric(w: np.ndarray, nodes: np.ndarray, weights: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """The polynomial through (nodes, values) at each w, by the second
    barycentric formula with the nodes' barycentric weights."""
    diff = w[:, None] - nodes[None, :]
    on_node = diff == 0.0
    diff[on_node] = 1.0
    terms = weights / diff
    out = (terms @ values) / terms.sum(axis=1)
    rows, cols = np.nonzero(on_node)
    out[rows] = values[cols]
    return out


@lru_cache(maxsize=32)
def _range_cdf_table(k: int) -> Callable[[np.ndarray], np.ndarray]:
    """The unit range CDF of k groups as a function of an array w in
    [0, _RANGE_SATURATES], sampled once per k.

    The table is the polynomial of degree n through _range_cdf_unit at the
    n + 1 Chebyshev points of the first kind, evaluated by the barycentric
    formula (Berrut and Trefethen, SIAM Review 46, 2004), which stays within
    a few ulps of the sampled values; numpy's Chebyshev series of the same
    degree came out noisier (5e-14 against 1e-15 at k = 3). A degree is
    accepted when the polynomial lies within _RANGE_TABLE_TOL of
    _range_cdf_unit at the n + 2 extrema of T_(n+1), endpoints included:
    the points where the error of such an interpolant peaks. Degree 64 passes for k <= 10, 128 for k = 20 to 100
    and 256 for k = 300; on a dense grid over [0, 18] the accepted tables
    lie within 2e-15 of _range_cdf_unit for k <= 5 and within 8e-13 for
    every k tried. Where no degree passes (k = 1000), the table is
    _range_cdf_unit itself: a polynomial that failed its check is never
    used. The k = 3 table takes the unit CDF at 65 + 66 points, about 2 ms.
    """
    half = _RANGE_SATURATES / 2.0
    for degree in _RANGE_TABLE_DEGREES:
        theta = np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1)
        nodes = half + half * np.cos(theta)
        weights = np.sin(theta)
        weights[1::2] *= -1.0
        values = _range_cdf_unit(nodes, k)
        for arr in (nodes, weights, values):
            arr.setflags(write=False)
        table = partial(_barycentric, nodes=nodes, weights=weights, values=values)
        check = half + half * np.cos(np.pi * np.arange(degree + 2) / (degree + 1))
        if np.max(np.abs(table(check) - _range_cdf_unit(check, k))) <= _RANGE_TABLE_TOL:
            return table
    return partial(_range_cdf_unit, k=k)


def studentized_range_cdf(q: float, k: int, df: float) -> float:
    """P(Q < q) for the studentized range of k groups with df error degrees
    of freedom: the unit-scale range CDF averaged over the chi-based scale
    factor u = s/sigma, whose density is
    2 (df/2)^(df/2) / Gamma(df/2) * u^(df-1) e^(-df u^2 / 2).

    The unit range CDF R(w) depends on k alone and is 1 from
    w = _RANGE_SATURATES on, so it comes from the table that
    _range_cdf_table samples once per k; each call evaluates that table at
    min(q u, _RANGE_SATURATES) on the 288-point scale grid. The clamp keeps
    the table inside the interval it was fitted on: at large df and q the
    cut 18 / q lies below the grid's lower end, the grid runs backwards and
    q u exceeds 18, where the polynomial would extrapolate.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if df <= 0:
        raise ValueError("df must be > 0")
    if q <= 0:
        return 0.0
    if df > 1e5:
        return float(_range_cdf_unit(np.array([q]), k)[0])
    # the scale density is negligible 14 sd or more away from u = 1
    spread = 14.0 / math.sqrt(2.0 * df)
    u_lo, u_hi = max(1e-9, 1.0 - spread), 1.0 + spread
    # the unit range CDF is 1 from w = _RANGE_SATURATES on, so only
    # u < _RANGE_SATURATES / q needs the grid; above that the scale density
    # integrates in closed form. Without the cut, large q (small df, small
    # alpha) put the whole rise of the range CDF inside the first panel.
    u_cut = min(u_hi, _RANGE_SATURATES / q)
    u, uw = _panel_grid(u_lo, u_cut, panels=12, order=24)
    log_coeff = (
        math.log(2.0)
        + (df / 2.0) * math.log(df / 2.0)
        - math.lgamma(df / 2.0)
    )
    log_density = log_coeff + (df - 1.0) * np.log(u) - df * u * u / 2.0
    density = np.exp(log_density)
    unit_cdf = _range_cdf_table(k)(np.minimum(q * u, _RANGE_SATURATES))
    value = float(np.sum(uw * density * unit_cdf))
    if u_cut < u_hi:
        value += chi2_sf(df * u_cut * u_cut, df)
    return min(max(value, 0.0), 1.0)


def studentized_range_sf(q: float, k: int, df: float) -> float:
    return 1.0 - studentized_range_cdf(q, k, df)


def _brent_root(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float, xtol: float
) -> float:
    """Root of f in [a, b], where fa = f(a) and fb = f(b) differ in sign,
    by Brent's method (zeroin): inverse quadratic or secant steps while they
    shrink the bracket fast enough, bisection otherwise. The result lies
    within 4 * eps * |root| + xtol of a sign change of f."""
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS_DOUBLE * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise ArithmeticError("root finder did not converge")


@lru_cache(maxsize=64)
def studentized_range_crit(alpha: float, k: int, df: float) -> float:
    """Critical value q with P(Q > q) = alpha. Cached: post-hoc tables
    reuse one (alpha, k, df).

    The bracket [1e-6, 4] is doubled until it holds the root, then Brent's
    method narrows it to 1e-12 in q: about ten CDF evaluations in all. The
    result is as accurate as the CDF. sf(q) matches alpha to ~1e-14, and q
    matches scipy's ppf to 1e-6 on the tested grid (k from 2 to 10, df from
    2 to 2e5, alpha down to 0.001). A root past q = 1e4 (e.g. alpha = 1e-9
    at df = 2) or a root finder that does not converge raises
    NoCriticalValue naming alpha, k and df.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    where = f"studentized range critical value at alpha={alpha:g}, k={k}, df={df:g}"

    def excess(q: float) -> float:
        return studentized_range_sf(q, k, df) - alpha

    lo, hi = 1e-6, 4.0
    f_lo, f_hi = excess(lo), excess(hi)
    while f_hi > 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi > 1e4:
            raise NoCriticalValue(f"no {where}: the upper tail at q = {lo:g} is still above alpha")
        f_hi = excess(hi)
    try:
        return _brent_root(excess, lo, hi, f_lo, f_hi, xtol=1e-12)
    except ArithmeticError as exc:
        raise NoCriticalValue(f"no {where}: {exc}") from None
