"""Property tests over random laws and panels, with equal and unequal weights:
construction against the ``np.unique`` merge, VaR and ES against the scan and
tail-form oracles, the expectile against the bisection reference, full ES
allocation, and the paper's coherence and comonotone-additivity table on
laws where every step is exact; PIT values against the law-based PIT; and
panel and forecast files that parse back to exactly the numbers written."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailrisk import (
    ComonotonePair,
    DiscreteDistribution,
    LossPanel,
    comonotone_sum,
    es_contributions,
    expected_shortfall,
    expectile,
    pit_series,
    value_at_risk,
)
from tailrisk import cli

import oracles
from test_cli import bulk_tables, set_bits

# derandomized so that every run checks the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None)

# small integers make duplicate atoms common
values = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
raw_weights = st.floats(0.01, 10.0)


def levels(boundaries):
    """Levels in (0, 1), including the given cumulative-weight boundaries."""
    inner = [b for b in boundaries if 0.0 < b < 1.0]
    free = st.floats(1e-3, 0.999)
    return st.one_of(free, st.sampled_from(inner)) if inner else free


def oracle_law(sample, law, equal):
    """Oracle input (atoms, weights, total): integer counts of the sample for
    equal weights, the law's merged float weights otherwise."""
    if equal:
        counts = sorted(Counter(sample).items())
        return [a for a, _ in counts], [c for _, c in counts], len(sample)
    return law.atoms.tolist(), law.weights.tolist(), 1


@st.composite
def laws(draw):
    """(law, oracle atoms, oracle weights, oracle total, level)."""
    sample = draw(st.lists(values, min_size=1, max_size=60))
    equal = draw(st.booleans())
    if equal:
        law = DiscreteDistribution.from_sample(sample)
    else:
        raw = draw(st.lists(raw_weights, min_size=len(sample), max_size=len(sample)))
        law = DiscreteDistribution(sample, np.asarray(raw) / math.fsum(raw))
    alpha = draw(levels(law.cum_weights.tolist()))
    return (law, *oracle_law(sample, law, equal), alpha)


@st.composite
def panels(draw):
    """(panel, oracle atoms, oracle weights, oracle total of the portfolio
    law, level)."""
    t = draw(st.integers(1, 40))
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(values, min_size=t * m, max_size=t * m))
    equal = draw(st.booleans())
    weights = None
    if not equal:
        raw = draw(st.lists(raw_weights, min_size=t, max_size=t))
        weights = np.asarray(raw) / math.fsum(raw)
    panel = LossPanel.from_rows(np.reshape(rows, (t, m)), weights=weights)
    law = panel.portfolio_law()
    alpha = draw(levels(law.cum_weights.tolist()))
    return (panel, *oracle_law(panel.portfolio_losses().tolist(), law, equal), alpha)


@st.composite
def merge_inputs(draw):
    """(atoms, weights): signed zeros among the atoms, sometimes one atom
    repeated nine or more times, and equal or unequal weights."""
    sample = draw(st.lists(st.one_of(values, st.sampled_from([0.0, -0.0])), min_size=1, max_size=40))
    if draw(st.booleans()):
        sample = draw(st.permutations(sample + [draw(values)] * draw(st.integers(9, 20))))
    n = len(sample)
    if draw(st.booleans()):
        return np.array(sample), np.full(n, 1.0 / n)
    raw = draw(st.lists(raw_weights, min_size=n, max_size=n))
    return np.array(sample), np.asarray(raw) / math.fsum(raw)


def _bits(array):
    return array.dtype, array.shape, array.tobytes()


# the sorts may order 0.0 and -0.0 either way, so one run of 32 mixed zeros
SIGNED_ZEROS = np.where(np.arange(32) % 3 == 1, -0.0, 0.0)


# n = 1; signed zeros, few and many; one atom nine times with unequal weights
@example((np.array([2.5]), np.array([1.0])))
@example((np.array([0.0, -0.0, 1.0, -0.0]), np.full(4, 0.25)))
@example((np.array([-0.0, 0.0, 0.0, 1.0]), np.array([0.125, 0.5, 0.25, 0.125])))
@example((SIGNED_ZEROS, np.full(32, 1 / 32)))
@example((SIGNED_ZEROS, np.arange(1.0, 33.0) / 528.0))
@example((np.full(9, 3.0), np.arange(1.0, 10.0) / 45.0))
@settings(PROPERTY, max_examples=300)
@given(merge_inputs())
def test_construction_equals_unique_merge(case):
    atoms, weights = case
    law = DiscreteDistribution(atoms, weights)
    want = oracles.merge_by_unique(atoms, weights)
    got = (law.atoms, law.weights, law.cum_weights)
    assert [_bits(a) for a in got] == [_bits(a) for a in want]


def _es_bound(atoms, alpha):
    return 1e-12 * max(1.0, max(abs(a) for a in atoms)) / (1.0 - alpha)


@PROPERTY
@given(laws())
def test_var_equals_scan(case):
    law, atoms, weights, total, alpha = case
    assert value_at_risk(law, alpha) == oracles.quantile_by_scan(atoms, weights, alpha, total)


@PROPERTY
@given(laws())
def test_es_equals_tail_form(case):
    law, atoms, weights, total, alpha = case
    want = oracles.es_tail_form(atoms, weights, alpha, total)
    assert abs(expected_shortfall(law, alpha) - want) <= _es_bound(atoms, alpha)


@PROPERTY
@given(panels())
def test_es_contributions_sum_to_total(case):
    panel, atoms, weights, total, alpha = case
    result = es_contributions(panel, alpha)
    assert abs(result.total - math.fsum(result.contributions)) <= 1e-10 * max(1.0, abs(result.total))
    want = oracles.es_tail_form(atoms, weights, alpha, total)
    assert abs(result.total - want) <= _es_bound(atoms, alpha)


@PROPERTY
@given(laws(), st.one_of(st.just(0.5), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
def test_expectile_equals_bisection(case, tau):
    law = case[0]
    want = oracles.expectile_by_bisection(law.atoms, law.weights, law.cum_weights, tau)
    assert expectile(law, tau).hex() == want.hex()


# The property table with no slack: integer losses, weights k/2^j and levels
# 1 - 2^-k make every cumulative weight, ES segment, dot product and the
# division by 1 - alpha exact, so each identity must hold to the last bit.
small_ints = st.integers(-20, 20)


@st.composite
def dyadic_weights(draw, t):
    """t positive weights k/2^j that sum to one."""
    j = draw(st.integers(max(1, (t - 1).bit_length()), 7))
    cuts = draw(st.lists(st.integers(1, 2**j - 1), min_size=t - 1, max_size=t - 1, unique=True))
    return np.diff([0, *sorted(cuts), 2**j]) / 2**j


dyadic_levels = st.integers(1, 10).map(lambda k: 1.0 - 2.0**-k)


@st.composite
def dyadic_panels(draw):
    """(panel of two integer positions with dyadic row weights, level)."""
    t = draw(st.integers(1, 12))
    rows = draw(st.lists(st.tuples(small_ints, small_ints), min_size=t, max_size=t))
    panel = LossPanel.from_rows(np.array(rows, dtype=float), weights=draw(dyadic_weights(t)))
    return panel, draw(dyadic_levels)


@st.composite
def dyadic_comonotone_pairs(draw):
    """(comonotone pair on an integer factor with dyadic weights, level)."""
    atoms = sorted(draw(st.lists(small_ints, min_size=1, max_size=10, unique=True)))
    k = len(atoms)
    factor = DiscreteDistribution(np.array(atoms, dtype=float), draw(dyadic_weights(k)))
    maps = st.lists(small_ints, min_size=k, max_size=k).map(lambda m: np.array(sorted(m), dtype=float))
    pair = ComonotonePair(factor, draw(maps), draw(maps))
    return pair, draw(dyadic_levels)


@PROPERTY
@given(dyadic_panels(), small_ints)
def test_es_is_coherent_without_slack(case, offset):
    panel, alpha = case
    law1, law2, law_sum = panel.column_law(0), panel.column_law(1), panel.portfolio_law()
    es = [expected_shortfall(law, alpha) for law in (law1, law2, law_sum)]
    assert es[2] <= es[0] + es[1]
    for law, value in zip((law1, law2, law_sum), es):
        assert expected_shortfall(law.scale(2.0), alpha) == 2.0 * value
        assert expected_shortfall(law.shift(offset), alpha) == value + offset


@PROPERTY
@given(dyadic_comonotone_pairs())
def test_var_and_es_are_comonotone_additive_without_slack(case):
    pair, alpha = case
    law1, law2, law_sum = comonotone_sum(pair)
    for measure in (value_at_risk, expected_shortfall):
        assert measure(law_sum, alpha) == measure(law1, alpha) + measure(law2, alpha)


# finite values whose row sums cannot overflow, written at full precision
written = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def pit_cases(draw):
    """(scenario sets, realizations): ragged sets with duplicates and signed
    zeros whose objects rows share, lists or arrays, or the rows of a 2-D
    array; realizations mostly on the sets' values, some infinite or NaN."""
    t = draw(st.integers(1, 12))
    set_values = st.one_of(values, st.sampled_from([0.0, -0.0]))
    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        sets = np.array(draw(st.lists(st.lists(set_values, min_size=k, max_size=k),
                                      min_size=t, max_size=t)))
        seen = sets.ravel().tolist()
    else:
        pool = draw(st.lists(st.lists(set_values, min_size=1, max_size=8), min_size=1, max_size=4))
        seen = [v for s in pool for v in s]
        if draw(st.booleans()):
            pool = [np.array(s) for s in pool]
        rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=t, max_size=t))
        sets = [pool[i] for i in rows]
    edges = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
    x = st.one_of(st.sampled_from(seen), edges, values)
    return sets, draw(st.lists(x, min_size=t, max_size=t))


@settings(PROPERTY, max_examples=200)
@given(pit_cases(), st.booleans(), st.integers(0, 2**32))
def test_pit_series_equals_the_law_based_pit(case, randomized, seed):
    sets, realizations = case
    z = pit_series(sets, realizations, seed, randomized=randomized).z
    assert z.tobytes() == oracles.pit_by_law(sets, realizations, seed, randomized).tobytes()


@st.composite
def panel_files(draw):
    """(file text, the values written): cells in ``repr``, some quoted, some
    padded with spaces or tabs, under one random line ending."""
    t = draw(st.integers(1, 8))
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(written, min_size=m, max_size=m), min_size=t, max_size=t))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    padding = st.sampled_from(["", " ", "\t", " \t "])

    def cell(value: float) -> str:
        text = draw(padding) + repr(value) + draw(padding)
        return f'"{text}"' if draw(st.booleans()) else text

    lines = [",".join(f"p{j}" for j in range(m))]
    lines += [",".join(cell(v) for v in row) for row in rows]
    end = draw(st.sampled_from([eol, ""]))
    return eol.join(lines) + end, np.array(rows, dtype=float)


@PROPERTY
@given(panel_files())
def test_panel_file_parses_to_the_values_written(tmp_path_factory, case):
    text, values = case
    path = tmp_path_factory.mktemp("panel") / "p.csv"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as patch:
        tables = bulk_tables(patch)
        rows = cli.parse_panel_csv(path).rows
    bulk = tables[0].view(float).reshape(len(tables[0]), -1)  # every such file takes the pass
    assert bulk.shape == values.shape and bulk.tobytes() == values.tobytes()
    assert rows.tobytes() == values.tobytes()


SCENARIOS = {"a.txt": [0.25, -1.5, 3.0], "b.txt": [1e-300, 2.5]}


@st.composite
def forecast_files(draw):
    """(file text, the columns written): the columns in a random order, floats
    in ``repr``, blank optional cells, scenario references and periods past
    int64, under one random line ending."""
    optional = draw(st.sets(st.sampled_from(["var_forecast", "es_forecast", "scenario_file"])))
    quantiles = [f"q{k}" for k in range(1, draw(st.sampled_from([0, 2, 4])) + 1)]
    names = draw(st.permutations(["period", "realized", *optional, *quantiles]))
    t = draw(st.integers(1, 6))
    periods = draw(st.lists(st.integers(-(2**64), 2**64), min_size=t, max_size=t))
    maybe_blank = st.one_of(st.just(math.nan), written)
    cells = {
        "period": [str(p) for p in periods],
        "scenario_file": draw(st.lists(st.sampled_from(["", *SCENARIOS]), min_size=t, max_size=t)),
    }
    columns = {}
    for name in names:
        if name not in cells:
            draws = maybe_blank if name in ("var_forecast", "es_forecast") else written
            columns[name] = np.array(draw(st.lists(draws, min_size=t, max_size=t)), dtype=float)
            cells[name] = ["" if math.isnan(v) else repr(v) for v in columns[name].tolist()]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(names), *(",".join(cells[name][i] for name in names) for i in range(t))]
    refs = cells["scenario_file"] if "scenario_file" in names else None
    return eol.join(lines) + draw(st.sampled_from([eol, ""])), periods, columns, refs


@PROPERTY
@given(forecast_files())
def test_forecast_file_parses_to_the_values_written(tmp_path_factory, case):
    text, periods, columns, refs = case
    directory = tmp_path_factory.mktemp("forecast")
    for name, values in SCENARIOS.items():
        (directory / name).write_text("\n".join(map(repr, values)) + "\n")
    path = directory / "f.csv"
    path.write_bytes(text.encode())
    fits = all(-(2**63) <= p < 2**63 for p in periods)
    with pytest.MonkeyPatch.context() as patch:
        tables = bulk_tables(patch)
        parsed = cli.parse_forecasts_csv(path)
        patch.setattr(cli, "_bulk_floats", lambda lines, columns: None)
        loop = cli.parse_forecasts_csv(path)
    # the bulk pass reads every file without a blank cell or an int64 overflow
    blank = any(np.isnan(v).any() for v in columns.values())
    assert [table is not None for table in tables] == [fits and not blank]
    for forecasts in (parsed, loop):
        assert forecasts.periods == periods
        for name in ("realized", "var_forecast", "es_forecast"):
            read = getattr(forecasts, name)
            assert (read is None) == (name not in columns)
            assert read is None or read.tobytes() == columns[name].tobytes()
        quantiles = [columns[f"q{k}"] for k in range(1, forecasts.quantiles.shape[1] + 1)]
        assert forecasts.quantiles.shape[1] == sum(name[0] == "q" for name in columns)
        assert forecasts.quantiles.tobytes() == np.reshape(quantiles, (-1, len(periods))).T.tobytes()
        sets = None if refs is None else [np.array(SCENARIOS[ref]) if ref else None for ref in refs]
        assert set_bits(forecasts.scenario_sets) == set_bits(sets)
