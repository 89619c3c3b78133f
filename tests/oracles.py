"""Independent brute-force oracles used to freeze expected test values.

Everything here works on raw atom/weight arrays or samples with naive
algorithms (linear scans, ternary search, area integrals, and for samples of
up to 10^6 values a plain sort with exact integer counts), and computes the
binomial and chi-square tails by exact integer and decimal sums, so that it
shares no code path with the package implementations it checks.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np


def quantile_by_scan(atoms, weights, u, total=1):
    """Smallest atom whose running weight reaches u, by linear scan.

    With integer weights (atom counts) and their sum as ``total``, the running
    weight is the running count over ``total`` rounded once, which is how an
    equal-weight law must place its order-statistic boundaries.
    """
    running = 0
    for a, w in zip(atoms, weights):
        running += w
        if running / total >= u:
            return a
    return atoms[-1]


def cdf_by_counting(atoms, weights, x):
    return math.fsum(w for a, w in zip(atoms, weights) if a <= x)


def cdf_left_by_counting(atoms, weights, x):
    return math.fsum(w for a, w in zip(atoms, weights) if a < x)


def es_tail_form(atoms, weights, alpha, total=1):
    """Tail-conditional expected shortfall with the discontinuity correction;
    ``total`` as in :func:`quantile_by_scan`."""
    q = quantile_by_scan(atoms, weights, alpha, total)
    tail_weight = math.fsum(w for a, w in zip(atoms, weights) if a >= q)
    tail_mean = math.fsum(a * w for a, w in zip(atoms, weights) if a >= q) / tail_weight
    return tail_mean + (tail_mean - q) * (tail_weight / total / (1.0 - alpha) - 1.0)


def order_statistic(sample, alpha):
    """The ceil(alpha*n)-th smallest value of a sample, with ceil(alpha*n)
    taken in exact rational arithmetic on the float ``alpha``."""
    ys = np.sort(np.asarray(sample, dtype=float))
    return float(ys[math.ceil(Fraction(alpha) * ys.size) - 1])


def es_of_sample(sample, alpha):
    """Tail-form expected shortfall of an equal-weight sample, from a numpy
    sort, an integer count of the tail and ``math.fsum``; fast enough for
    10^6 values."""
    ys = np.sort(np.asarray(sample, dtype=float))
    n = ys.size
    q = ys[math.ceil(Fraction(alpha) * n) - 1]
    tail = ys[np.searchsorted(ys, q, side="left"):]
    tail_mean = math.fsum(tail.tolist()) / tail.size
    return tail_mean + (tail_mean - q) * (tail.size / n / (1.0 - alpha) - 1.0)


def expectile_residual(sample, tau, e):
    """First-order condition tau*E[(L-e)+] - (1-tau)*E[(e-L)+] of an
    equal-weight sample at ``e``, each side summed with ``math.fsum``."""
    gaps = np.asarray(sample, dtype=float) - e
    above = math.fsum(gaps[gaps > 0.0].tolist())
    below = math.fsum((-gaps[gaps < 0.0]).tolist())
    return (tau * above - (1.0 - tau) * below) / gaps.size


def expectile_by_minimization(atoms, weights, tau, iterations=200):
    """Ternary search of the asymmetric squared loss
    E[tau*(L-l)+^2 + (1-tau)*(l-L)+^2] over the support hull."""
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)

    def loss(l):
        up = np.clip(atoms - l, 0.0, None)
        down = np.clip(l - atoms, 0.0, None)
        return tau * float(np.dot(up * up, weights)) + (1.0 - tau) * float(
            np.dot(down * down, weights)
        )

    lo, hi = float(atoms.min()), float(atoms.max())
    for _ in range(iterations):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if loss(m1) <= loss(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


def wasserstein_by_cdf_area(atoms1, weights1, atoms2, weights2):
    """Area between the two cdfs, integrated over the merged atom grid."""
    xs = sorted(set(list(atoms1) + list(atoms2)))
    total = 0.0
    for left, right in zip(xs[:-1], xs[1:]):
        f1 = cdf_by_counting(atoms1, weights1, left)
        f2 = cdf_by_counting(atoms2, weights2, left)
        total += abs(f1 - f2) * (right - left)
    return total


def pinball_quantile(sample, alpha):
    """Inf alpha-quantile of a sample: smallest order statistic with k/n >= alpha."""
    ys = sorted(sample)
    n = len(ys)
    for k, y in enumerate(ys, start=1):
        if k / n >= alpha:
            return y
    return ys[-1]


def elicit_by_scan(s, sample):
    """Empirical mean-score minimizer of a ``tailrisk`` scoring function by
    scanning candidate forecasts: the sample points, the midpoints of
    consecutive points, the sample mean (squared error), the stationary point
    of each quadratic piece (weighted squared error) and the threshold (tail
    mean, whose candidates stop below it). Each candidate is scored with
    ``tailrisk.score`` summed by ``math.fsum``, in ascending order; a tie
    keeps the smaller forecast. O(n^2)."""
    from tailrisk import ScoreKind, score

    ys = np.sort(np.asarray(sample, dtype=float))
    n = ys.size
    parts = [ys, 0.5 * (ys[:-1] + ys[1:])]
    if s.kind is ScoreKind.SQUARED_ERROR:
        parts.append([math.fsum(ys.tolist()) / n])
    elif s.kind is ScoreKind.WEIGHTED_SQUARED_ERROR:
        tau = s.level
        total = math.fsum(ys.tolist())
        for k in range(n + 1):
            below = math.fsum(ys[:k].tolist())
            x = ((1.0 - tau) * below + tau * (total - below)) / ((1.0 - tau) * k + tau * (n - k))
            if (k == 0 or ys[k - 1] <= x) and (k == n or x <= ys[k]):
                parts.append([x])
    elif s.kind is ScoreKind.TAIL_MEAN:
        parts.append([s.threshold, max(s.threshold, math.fsum(ys.tolist()) / n)])
    candidates = np.unique(np.concatenate([np.asarray(p, dtype=float) for p in parts]))
    if s.kind is ScoreKind.TAIL_MEAN:
        candidates = candidates[candidates >= s.threshold]
    best_x, best = math.nan, math.inf
    for x in candidates:
        total = math.fsum(np.asarray(score(s, float(x), ys)).tolist())
        if total < best:
            best_x, best = float(x), total
    return best_x


def population_minimizer_on_grid(score_fn, atoms, weights, grid):
    """Argmin over a grid of the population mean score E[s(x, L)]."""
    best_x = None
    best = math.inf
    for x in grid:
        value = math.fsum(w * score_fn(x, a) for a, w in zip(atoms, weights))
        if value < best:
            best = value
            best_x = x
    return best_x


def merge_by_unique(atoms, weights):
    """(atoms, weights, cumulative weights) of a law, merged by ``np.unique``:
    equal weights by integer counts over n, other weights summed by
    ``np.bincount``, with the cumulative weights as the split prefix sum of
    w * 2^53 in whole parts and remainders. A law must equal this bit for bit."""
    atoms = np.asarray(atoms, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if (weights == weights[0]).all():
        n = atoms.size
        merged_atoms, counts = np.unique(atoms, return_counts=True)
        return merged_atoms, counts / n, np.cumsum(counts) / n
    merged_atoms, inverse = np.unique(atoms, return_inverse=True)
    merged_weights = np.bincount(inverse, weights=weights)
    scaled = merged_weights * 2.0**53
    whole = np.rint(scaled)
    cum = (np.cumsum(whole) + np.cumsum(scaled - whole)) / 2.0**53
    cum[-1] = 1.0
    return merged_atoms, merged_weights, cum


def es_by_clipped_segments(atoms, cum, alpha):
    """Expected shortfall as the dot product of the atoms with the segments
    cum_k - max(cum_{k-1}, alpha) clipped at zero."""
    lower = np.maximum(np.concatenate(([0.0], cum[:-1])), alpha)
    seg = np.clip(cum - lower, 0.0, None)
    return float(np.dot(atoms, seg)) / (1.0 - alpha)


def expectile_by_bisection(atoms, weights, cum, tau):
    """The tau-expectile by the package's first bisection kernel, kept here
    as it was written, on numpy scalars: bisect over the atoms for the sign
    change of the imbalance tau*E[(L-l)+] - (1-tau)*E[(l-L)+], then solve the
    linear piece in closed form. A law's expectile must equal this bit for bit."""
    n = atoms.size
    if n == 1:
        return float(atoms[0])
    cum_aw = (atoms * weights).cumsum()
    total_aw = float(cum_aw[-1])

    def imbalance_at_atom(k):
        above = (total_aw - cum_aw[k]) - (1.0 - cum[k]) * atoms[k]
        below = cum[k] * atoms[k] - cum_aw[k]
        return tau * above - (1.0 - tau) * below

    lo, hi = 0, n - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if imbalance_at_atom(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    if imbalance_at_atom(hi) == 0.0:
        return float(atoms[hi])
    num = tau * (total_aw - cum_aw[lo]) + (1.0 - tau) * cum_aw[lo]
    den = tau * (1.0 - cum[lo]) + (1.0 - tau) * cum[lo]
    return min(max(num / den, float(atoms[lo])), float(atoms[hi]))


def pit_by_law(scenario_sets, realizations, rng_seed, randomized=True):
    """PIT values by the package's first kernel, kept here as it was written:
    the empirical law of each row's set by ``from_sample``, one law per set
    object, then F(x-) + v * (F(x) - F(x-)) from ``cdf_left`` and ``cdf`` with
    one scalar draw per row. ``pit_series`` must equal this bit for bit."""
    from tailrisk import DiscreteDistribution, EmptyScenarioSetError

    rng = np.random.default_rng(rng_seed)
    laws = {}
    z = []
    for scenarios, x in zip(scenario_sets, np.asarray(realizations, dtype=float).ravel()):
        if len(scenarios) == 0:
            raise EmptyScenarioSetError("scenario set must contain at least one value")
        if id(scenarios) not in laws:
            laws[id(scenarios)] = (scenarios, DiscreteDistribution.from_sample(scenarios))
        law = laws[id(scenarios)][1]
        v = float(rng.uniform()) if randomized else 1.0
        lo, hi = law.cdf_left(float(x)), law.cdf(float(x))
        z.append(lo + v * (hi - lo))
    return np.array(z)


def binomial_tails_exact(k, n, p):
    """P[X <= k] and P[X >= k] for X ~ Binomial(n, p): with p = a/d, the
    integers C(n, i) a^i (d - a)^(n - i) summed exactly, then divided by d^n
    with one rounding."""
    a, d = p.as_integer_ratio()
    b = d - a
    term, lower = b**n, 0
    for i in range(k + 1):
        if i:
            term = term * (n - i + 1) * a // (i * b)
        lower += term
    total = d**n
    return lower / total, (total - lower + term) / total


def _pi_decimal(eps):
    """pi by Machin's formula, 16 atan(1/5) - 4 atan(1/239), to within eps."""
    def atan_inv(m):
        x = Decimal(1) / m
        term, total, j = x, x, 1
        while abs(term) > eps:
            term *= -x * x
            j += 2
            total += term / j
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def chi2_sf_decimal(x, df, digits=40):
    """P[chi2_df > x] for integer df >= 1, summed in decimal arithmetic. With
    l = x/2 it is e^-l sum_{j < df/2} l^j / j! for even df; for odd df it is
    erfc(sqrt l) + e^-l sum_{j=1}^{(df-1)/2} l^(j-1/2) / Gamma(j + 1/2), where
    erfc is 1 - erf and erf the series of positive terms
    (2/sqrt(pi)) e^-l sum_n (2l)^n sqrt(l) / (2n + 1)!!."""
    with localcontext() as ctx:
        lam = Decimal(x) / 2
        erfc_needed = df % 2 == 1 and lam < 800  # past it erfc(sqrt l) < 1e-340
        # 1 - erf cancels about l / ln(10) digits
        ctx.prec = digits + (int(lam / 2) if erfc_needed else 0)
        eps = Decimal(10) ** -ctx.prec
        e = (-lam).exp()
        if df % 2 == 0:
            term = total = e
            for j in range(1, df // 2):
                term = term * lam / j
                total += term
            return float(total)
        sqrt_pi = _pi_decimal(eps).sqrt()
        total = Decimal(0)
        if erfc_needed:
            term = series = lam.sqrt()
            n = 0
            while term > series * eps:
                n += 1
                term = term * 2 * lam / (2 * n + 1)
                series += term
            total = 1 - 2 * e * series / sqrt_pi
        term = 2 * lam.sqrt() * e / sqrt_pi  # l^(1/2) e^-l / Gamma(3/2)
        for j in range(1, (df - 1) // 2 + 1):
            total += term
            term = term * lam / (j + Decimal("0.5"))
        return float(total)
