"""Independent oracles for the benchmark's output checks.

Nothing here imports tailrisk. Each oracle recomputes a result from the
generated inputs with numpy and the standard library, by a method other than
the package's (order statistics instead of cumulative-weight searches,
tail forms instead of quantile integrals, bisection instead of bracketing,
log-space sums and closed-form tails instead of scipy), so a check fails when
the program's output is wrong rather than agreeing with it by construction.

Every ``check_*`` function raises :class:`CheckFailed` with a message naming
the first value that disagrees.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle or a required property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(name: str, got, want: float, rel: float = REL_TOL, abs_tol: float = 0.0) -> None:
    """``got`` equals ``want`` to ``rel`` relative to max(1, |want|), plus ``abs_tol``."""
    ok = (
        isinstance(got, (int, float))
        and math.isfinite(got)
        and abs(got - want) <= rel * max(1.0, abs(want)) + abs_tol
    )
    expect(ok, f"{name}: got {got!r}, oracle {want!r}")


# ---------------------------------------------------------------- laws


def order_index(alpha: float, n: int) -> int:
    """1-based index k = ceil(alpha * n) of the left-continuous alpha-quantile
    of n equally weighted points, in exact arithmetic on the float ``alpha``."""
    return math.ceil(Fraction(alpha) * n)


def var_sorted(xs: np.ndarray, alpha: float) -> float:
    """VaR of equally weighted points: the order statistic at ceil(alpha * n)."""
    return float(xs[order_index(alpha, xs.size) - 1])


def es_sorted(xs: np.ndarray, alpha: float) -> float:
    """ES of equally weighted points in tail form with integer counts:
    (sum of the n-k largest / n + x_(k) * (k/n - alpha)) / (1 - alpha)."""
    n = xs.size
    k = order_index(alpha, n)
    boundary = float(Fraction(k, n) - Fraction(alpha))
    tail = math.fsum(xs[k:].tolist())
    return math.fsum([tail / n, float(xs[k - 1]) * boundary]) / (1.0 - alpha)


def var_weighted(atoms, weights, alpha: float) -> float:
    """Smallest atom whose exactly summed cumulative weight reaches alpha."""
    order = np.argsort(atoms, kind="stable")
    total = Fraction(0)
    for i in order:
        total += Fraction(float(weights[i]))
        if total >= Fraction(alpha):
            return float(atoms[i])
    return float(atoms[order[-1]])


def es_weighted(atoms, weights, alpha: float) -> float:
    """Tail-conditional ES with the boundary correction, summed with fsum."""
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    q = var_weighted(atoms, weights, alpha)
    above = atoms > q
    p_above = math.fsum(weights[above].tolist())
    beyond = math.fsum((atoms[above] * weights[above]).tolist())
    return math.fsum([beyond, q * math.fsum([1.0, -alpha, -p_above])]) / (1.0 - alpha)


def expectile_root(atoms, tau: float, weights=None) -> float:
    """Root of tau*E[(L-e)+] = (1-tau)*E[(e-L)+] by bisection to the last bit."""
    x = np.asarray(atoms, dtype=float)
    w = np.full(x.size, 1.0 / x.size) if weights is None else np.asarray(weights, dtype=float)

    def imbalance(e: float) -> float:
        gap = x - e
        return tau * float(np.dot(np.clip(gap, 0.0, None), w)) + (1.0 - tau) * float(
            np.dot(np.clip(gap, None, 0.0), w)
        )

    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return lo
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo if abs(imbalance(lo)) <= abs(imbalance(hi)) else hi
        if imbalance(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def measure_sorted(xs: np.ndarray, kind: str, level: float) -> float:
    if kind == "var":
        return var_sorted(xs, level)
    if kind == "es":
        return es_sorted(xs, level)
    if kind == "expectile":
        return expectile_root(xs, level)
    raise ValueError(kind)


# ---------------------------------------------------------------- panels


def by_name(values: dict, names: list[str]) -> list:
    """Per-position report values in column order (reports sort their keys)."""
    expect(sorted(values) == sorted(names), f"positions {sorted(values)[:3]}... are not the columns")
    return [values[name] for name in names]


def check_measure(report: dict, rows: np.ndarray, names: list[str], kind: str, level: float) -> None:
    res = report["results"]
    portfolio = np.sort(rows.sum(axis=1))
    close("portfolio", res["portfolio"], measure_sorted(portfolio, kind, level))
    for name, got, col in zip(names, by_name(res["positions"], names), rows.T):
        close(name, got, measure_sorted(np.sort(col), kind, level))


def contributions(rows: np.ndarray, kind: str, level: float) -> tuple[float, list[float]]:
    """Euler contributions as tail-weighted column means.

    ES: rows beyond the VaR order statistic get weight 1/(n(1-a)), rows equal
    to it share the remaining tail mass. Expectile: weight tau above the
    portfolio expectile and 1-tau at or below it, normalised.
    """
    p = rows.sum(axis=1)
    n = p.size
    if kind == "es":
        q = var_sorted(np.sort(p), level)
        above, at = p > q, p == q
        rest = float(Fraction(1) - Fraction(level) - Fraction(int(above.sum()), n))
        beta = rest / (int(at.sum()) / n)
        total = es_sorted(np.sort(p), level)
        parts = [
            math.fsum([math.fsum(rows[above, i].tolist()), beta * math.fsum(rows[at, i].tolist())])
            / n
            / (1.0 - level)
            for i in range(rows.shape[1])
        ]
        return total, parts
    total = expectile_root(p, level)
    w = np.where(p > total, level, 1.0 - level)
    return total, (w @ rows / math.fsum(w.tolist())).tolist()


def check_allocate(report: dict, rows: np.ndarray, names: list[str], kind: str, level: float) -> None:
    res = report["results"]
    total, parts = contributions(rows, kind, level)
    got = by_name(res["contributions"], names)
    close("total", res["total"], total)
    for name, g, w in zip(names, got, parts):
        close(f"contribution of {name}", g, w)
    close("sum of contributions", math.fsum(got), res["total"])


def check_diversify(report: dict, rows: np.ndarray, names: list[str], kind: str, level: float) -> None:
    res = report["results"]
    p = np.sort(rows.sum(axis=1))
    cols = [np.sort(rows[:, i]) for i in range(rows.shape[1])]
    total = measure_sorted(p, kind, level)
    alone = [measure_sorted(c, kind, level) for c in cols]
    close("diversification_index", res["diversification_index"], total / math.fsum(alone), rel=1e-8)
    rac = math.fsum([total, -float(np.mean(p))])
    racs = math.fsum([a - float(np.mean(c)) for a, c in zip(alone, cols)])
    close("diversification_benefit", res["diversification_benefit"], 1.0 - rac / racs, rel=1e-8)
    if kind == "var":
        expect(res["marginal_indices"] is None, "var has no marginal indices")
        return
    _, parts = contributions(rows, kind, level)
    got = by_name(res["marginal_indices"], names)
    for name, g, part, a in zip(names, got, parts, alone):
        close(f"marginal index of {name}", g, part / a, rel=1e-8)


# ---------------------------------------------------------------- elicitation


def check_elicit(report: dict, sample: np.ndarray, score: str, level=None, threshold=None) -> None:
    """Pinball elicits the order statistic at ceil(alpha n), squared error the
    sample mean, weighted squared error the sample expectile, and the
    tail-mean score max(threshold, sample mean)."""
    ys = np.sort(sample)
    mean = math.fsum(ys.tolist()) / ys.size
    if score == "weighted-absolute-error":
        want = var_sorted(ys, level)
    elif score == "squared-error":
        want = mean
    elif score == "weighted-squared-error":
        want = expectile_root(ys, level)
    elif score == "tail-mean":
        want = max(threshold, mean)
    else:
        raise ValueError(score)
    close(f"{score} estimate", report["results"]["estimate"], want)


def check_two_step(report: dict, sample: np.ndarray, alpha: float) -> None:
    ys = np.sort(sample)
    q = var_sorted(ys, alpha)
    tail = ys[ys >= q]
    close("quantile", report["results"]["quantile"], q)
    close("tail mean", report["results"]["es"], math.fsum(tail.tolist()) / tail.size)


# ---------------------------------------------------------------- backtests


def binomial_two_sided(k: int, n: int, p: float) -> float:
    """min(1, 2 min(P[X <= k], P[X >= k])) for X ~ Binomial(n, p), from
    log-space probabilities summed with fsum."""
    lg = math.lgamma(n + 1)
    lp, lq = math.log(p), math.log1p(-p)
    logs = [lg - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * lp + (n - i) * lq for i in range(n + 1)]
    top = max(logs)
    pmf = [math.exp(v - top) for v in logs]
    scale = math.exp(top)
    lower = math.fsum(pmf[: k + 1]) * scale
    upper = math.fsum(pmf[k:]) * scale
    return min(1.0, 2.0 * min(lower, upper))


def chi2_sf_odd(x: float, df: int) -> float:
    """Chi-square survival function for odd degrees of freedom, closed form."""
    assert df % 2 == 1
    if x <= 0.0:
        return 1.0
    total = math.erfc(math.sqrt(x / 2.0))
    term = math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)
    for j in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * j + 1)
    return min(total, 1.0)


def _xlogy(x: float, y: float) -> float:
    return 0.0 if x == 0 else x * math.log(y)


def markov_lr(indicators: np.ndarray) -> tuple[float, float]:
    """First-order Markov likelihood-ratio statistic and its chi-square(1) p-value."""
    prev, nxt = indicators[:-1], indicators[1:]
    n00 = int(np.sum((prev == 0) & (nxt == 0)))
    n01 = int(np.sum((prev == 0) & (nxt == 1)))
    n10 = int(np.sum((prev == 1) & (nxt == 0)))
    n11 = int(np.sum((prev == 1) & (nxt == 1)))
    p01 = n01 / (n00 + n01) if n00 + n01 else 0.0
    p11 = n11 / (n10 + n11) if n10 + n11 else 0.0
    pooled = (n01 + n11) / (n00 + n01 + n10 + n11)
    markov = _xlogy(n00, 1 - p01) + _xlogy(n01, p01) + _xlogy(n10, 1 - p11) + _xlogy(n11, p11)
    iid = _xlogy(n00 + n10, 1 - pooled) + _xlogy(n01 + n11, pooled)
    stat = max(2.0 * (markov - iid), 0.0)
    return stat, math.erfc(math.sqrt(stat / 2.0))


def _check_test(name: str, got: dict, stat: float, p: float) -> None:
    close(f"{name} statistic", got["statistic"], stat, rel=1e-8)
    close(f"{name} p-value", got["p_value"], p, rel=1e-7, abs_tol=1e-12)


def _check_violations(name: str, coverage: dict, independence, losses, forecasts, alpha) -> None:
    v = (losses > forecasts).astype(int)
    count = int(v.sum())
    expect(coverage["statistic"] == count, f"{name}: {coverage['statistic']} violations, oracle {count}")
    close(f"{name} coverage p-value", coverage["p_value"],
          binomial_two_sided(count, v.size, 1.0 - alpha), rel=1e-7, abs_tol=1e-12)
    if 0 < count < v.size:
        _check_test(f"{name} independence", independence, *markov_lr(v))


def check_backtest_var(report: dict, fc: dict, alpha: float) -> None:
    res = report["results"]
    count = int(np.sum(fc["realized"] > fc["var"]))
    expect(res["violations"] == count, f"{res['violations']} violations, oracle {count}")
    expect(res["periods"] == fc["realized"].size, "period count")
    _check_violations("var", res["coverage"], res["independence"], fc["realized"], fc["var"], alpha)


def check_backtest_es(report: dict, fc: dict, alpha: float) -> None:
    res = report["results"]
    quantiles = fc["quantiles"]
    k = quantiles.shape[1]
    levels = [alpha + j * (1.0 - alpha) / k for j in range(k)]
    for j, level in enumerate(levels):
        close(f"level {j + 1}", res["levels"][j], level, rel=1e-15)
        _check_violations(f"q{j + 1}", res["coverage"][j], res["independence"][j],
                          fc["realized"], quantiles[:, j], level)
    passed = all(c["p_value"] >= res["significance"] / k for c in res["coverage"])
    expect(res["passed"] == passed, "joint verdict")
    gap = math.fsum((fc["es"] - quantiles.mean(axis=1)).tolist()) / fc["es"].size
    close("mean_gap", res["mean_gap"], gap, rel=1e-8)
    n_top = max(1, math.ceil(fc["realized"].size * (1.0 - alpha) / k))
    top = np.sort(fc["realized"])[::-1][:n_top].tolist()
    expect(res["top_tail_observations"] == top, "top tail observations")


def pit_bounds(scenarios: list[np.ndarray], realized: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(x-) and F(x) of each realization under its scenario set, by counting."""
    lo = np.array([np.count_nonzero(s < x) / s.size for s, x in zip(scenarios, realized)])
    hi = np.array([np.count_nonzero(s <= x) / s.size for s, x in zip(scenarios, realized)])
    return lo, hi


def ljung_box_pit(z: np.ndarray, max_lag: int) -> float:
    """Bonferroni-combined Ljung-Box p-value over powers 1..3 of the PIT values."""
    t = z.size
    worst = math.inf
    for power in (1, 2, 3):
        c = z**power - np.mean(z**power)
        denom = float(np.dot(c, c))
        q = t * (t + 2.0) * math.fsum(
            (float(np.dot(c[:-lag], c[lag:])) / denom) ** 2 / (t - lag) for lag in range(1, max_lag + 1)
        )
        worst = min(worst, chi2_sf_odd(q, max_lag))
    return min(1.0, 3 * worst)


def check_backtest_pit(report: dict, fc: dict, seed: int, bins: int = 10, max_lag: int = 5) -> None:
    """Every PIT value lies in [F(x-), F(x)] and equals F(x-) + v (F(x) - F(x-))
    for the draws v of a generator seeded with ``seed``, in row order."""
    res = report["results"]
    z = np.asarray(res["z"], dtype=float)
    lo, hi = pit_bounds(fc["scenarios"], fc["realized"])
    expect(z.size == lo.size, "one PIT value per period")
    expect(bool(np.all((lo <= z) & (z <= hi))), "PIT value outside [F(x-), F(x)]")
    v = np.random.default_rng(seed).uniform(size=z.size)
    expect(bool(np.all(np.abs(z - (lo + v * (hi - lo))) <= 1e-12)), "PIT values do not reproduce")
    counts, _ = np.histogram(z, bins=bins, range=(0.0, 1.0))
    expected = z.size / bins
    stat = math.fsum(((counts - expected) ** 2 / expected).tolist())
    _check_test("uniformity", res["uniformity"], stat, chi2_sf_odd(stat, bins - 1))
    close("independence p-value", res["independence"]["p_value"], ljung_box_pit(z, max_lag),
          rel=1e-7, abs_tol=1e-12)


# ---------------------------------------------------------------- coherence


def check_expectile_counterexample(found: dict) -> None:
    """The pair is comonotone and the expectiles really fail to add up."""
    w = np.asarray(found["factor_weights"], dtype=float)
    f1 = np.asarray(found["map1"], dtype=float)
    f2 = np.asarray(found["map2"], dtype=float)
    tau = found["tau"]
    expect(bool(np.all(np.diff(f1) >= 0) and np.all(np.diff(f2) >= 0)), "maps are not comonotone")
    close("weights sum", math.fsum(w.tolist()), 1.0, rel=1e-12)
    e1, e2 = expectile_root(f1, tau, w), expectile_root(f2, tau, w)
    es = expectile_root(f1 + f2, tau, w)
    close("part 1", found["part_values"][0], e1)
    close("part 2", found["part_values"][1], e2)
    close("sum", found["sum_value"], es)
    expect(abs(es - (e1 + e2)) > 1e-6, "expectile gap below 1e-6")


def check_var_example(found: dict) -> None:
    """The joint law makes VaR strictly superadditive."""
    rows = np.asarray(found["rows"], dtype=float)
    w = np.asarray(found["weights"], dtype=float)
    a = found["alpha"]
    v1, v2 = var_weighted(rows[:, 0], w, a), var_weighted(rows[:, 1], w, a)
    vs = var_weighted(rows.sum(axis=1), w, a)
    close("portfolio VaR", found["portfolio_var"], vs)
    close("position 1 VaR", found["position_vars"][0], v1)
    close("position 2 VaR", found["position_vars"][1], v2)
    expect(vs > v1 + v2, "VaR is not superadditive")


def check_sweep(sweep: dict, denominator: int, superadditive: bool, cells: int = 9, spot_every: int = 97) -> None:
    """All C(d+8, 8) joint laws on the 3x3 grid, ES and expectile subadditive
    on each, every ``spot_every``-th panel's values equal to the oracles, and,
    where ``superadditive``, at least one VaR-superadditive law."""
    panels = sweep["panels"]
    want = math.comb(denominator + cells - 1, cells - 1)
    expect(len(panels) == want, f"{len(panels)} panels, want {want}")
    seen = set()
    found = 0
    for idx, (rows, weights, values) in enumerate(panels):
        key = tuple(np.rint(weights * denominator).astype(int)) + tuple(rows.ravel())
        seen.add(key)
        for fam in ("es", "expectile"):
            expect(values[fam][2] <= values[fam][0] + values[fam][1] + 1e-10, f"{fam} superadditive on panel {idx}")
        found += values["var"][2] > values["var"][0] + values["var"][1] + 1e-12
        if idx % spot_every == 0:
            laws = (rows[:, 0], rows[:, 1], rows.sum(axis=1))
            for law, got in zip(laws, values["var"]):
                close("sweep VaR", got, var_weighted(law, weights, sweep["alpha"]))
            for law, got in zip(laws, values["es"]):
                close("sweep ES", got, es_weighted(law, weights, sweep["alpha"]))
            for law, got in zip(laws, values["expectile"]):
                close("sweep expectile", got, expectile_root(law, sweep["tau"], weights))
    expect(len(seen) == want, "sweep panels are not distinct")
    expect(found > 0 or not superadditive, "no VaR-superadditive law")
