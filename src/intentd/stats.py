"""Summary statistics and linear fits for benchmark samples."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class SummaryStats:
    n: int
    mean_ms: float
    stddev_ms: float
    ci95_ms: float
    cov: float


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method
    (Numerical Recipes, 3rd ed., section 6.4)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for numerator in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _t_upper_tail(t: float, df: float) -> float:
    """P(T > t) for t >= 0: half the regularized incomplete beta
    I_x(df/2, 1/2) at x = df / (df + t^2)."""
    a, b = df / 2.0, 0.5
    x = df / (df + t * t)
    y = t * t / (df + t * t)  # 1 - x without the cancellation
    if y == 0.0:
        return 0.5
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a / 2.0
    return (1.0 - front * _beta_fraction(b, a, y) / b) / 2.0


def t_quantile(probability: float, df: float) -> float:
    """Inverse CDF of Student's t with df degrees of freedom.

    Newton's method on the upper tail, started at 0: on t >= 0 the tail is
    convex and decreasing, so every step lands at or below the root and the
    iteration climbs to it without overshooting.
    """
    if not 0.0 < probability < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {probability}")
    if not df > 0:
        raise ValueError(f"df must be positive, got {df}")
    if probability < 0.5:
        return -t_quantile(1.0 - probability, df)
    tail = 1.0 - probability
    log_density_scale = (
        math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)
    )
    t = 0.0
    for _ in range(200):
        density = math.exp(log_density_scale - (df + 1.0) / 2.0 * math.log1p(t * t / df))
        step = (_t_upper_tail(t, df) - tail) / density
        t += step
        if step <= 1e-15 * t:
            return t
    raise ArithmeticError(f"t quantile did not converge at p={probability}, df={df}")


def summarize(samples: Sequence[float]) -> SummaryStats:
    """Mean, sample standard deviation, Student-t 95% CI half-width, CoV.

    Needs at least two samples; with n - 1 degrees of freedom the half-width
    is t(0.975, n-1) * stddev / sqrt(n).
    """
    n = len(samples)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean = math.fsum(samples) / n
    variance = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    stddev = math.sqrt(variance)
    ci95 = t_quantile(0.975, n - 1) * stddev / math.sqrt(n)
    cov = stddev / mean if mean != 0 else 0.0
    return SummaryStats(n=n, mean_ms=mean, stddev_ms=stddev, ci95_ms=ci95, cov=cov)


def fit_linear(points: Sequence[tuple[float, float]]) -> LinearFit:
    """Ordinary least squares y = slope * x + intercept with r-squared.

    Needs at least three points with non-identical x values; a flat response
    (zero total variance) reports r_squared = 1.0.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 points, got {len(points)}")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    n = len(xs)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all x values are equal")
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)
