import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcsim import (
    ParentalGroup,
    ReliefCategory,
    Scenario,
    build_panel,
    did,
    eligibility,
    fixed_effects,
    ols,
)
from ctcsim.errors import RankDeficient, ValidationError


def naive_sandwich(X, y):
    """Dense normal-equations oracle for the HC1 robust covariance."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    n, k = X.shape
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    e = y - X @ beta
    meat = X.T @ np.diag(e**2) @ X
    cov = xtx_inv @ meat @ xtx_inv
    if n > k:
        cov *= n / (n - k)
    return beta, cov


def fe_design(panel, baseline_year):
    """The explicit dummy design that `fixed_effects` fits: const, groups, years, interactions."""
    groups = [g for g in ParentalGroup
              if g is not ParentalGroup.MARRIED and any(group is g for _, group, _ in panel)]
    years = sorted({year for year, _, _ in panel} - {baseline_year})
    columns = {"const": [1.0] * len(panel)}
    for g in groups:
        columns[g.value] = [float(group is g) for _, group, _ in panel]
    for y in years:
        columns[f"year_{y}"] = [float(year == y) for year, _, _ in panel]
    for g in groups:
        for y in years:
            columns[f"{g.value}:year_{y}"] = [float(group is g and year == y)
                                               for year, group, _ in panel]
    return columns, [outcome for _, _, outcome in panel]


def did_design(panel):
    """The explicit 2x2 dummy design that `did` fits: single mothers against single fathers."""
    rows = [row for row in panel if row[1] is not ParentalGroup.MARRIED]
    treated_col = [float(group is ParentalGroup.SINGLE_MOTHER) for _, group, _ in rows]
    post = [float(year >= 2018) for year, _, _ in rows]
    columns = {"const": [1.0] * len(rows), "treated": treated_col, "post": post,
               "treated_post": [t * p for t, p in zip(treated_col, post)]}
    return columns, [outcome for _, _, outcome in rows]


def assert_same_fit(res, oracle):
    # Zero-df covariances hold the same math.nan object on both sides, so == holds.
    for field in ("names", "estimates", "cov", "residuals", "fitted", "r_squared", "df_resid"):
        assert getattr(res, field) == getattr(oracle, field), field


def fixture_panel(pop, params_by_year, categories, scenario=Scenario.S1, years=range(2003, 2018)):
    rows = []
    for year in years:
        for group in ParentalGroup:
            est = eligibility(pop, year, group, params_by_year[year], scenario)
            share = sum((est.proportion(c) for c in categories), Fraction(0))
            rows.append((year, group, share))
    return build_panel(rows)


class TestOls:
    def test_exact_line(self):
        res = ols({"const": [1, 1], "x": [1, 2]}, [2, 4])
        assert res.estimate("x") == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(res.residuals, 0.0, atol=1e-12)
        # Two points, two coefficients: no residual df, so no covariance.
        assert res.df_resid == 0
        assert np.isnan(res.cov).all() and math.isnan(res.se("x"))

    def test_three_point_closed_form(self):
        # Hand-derived: beta = (5/6, 3/2) for y = [1, 2, 4] on x = [0, 1, 2].
        columns = {"const": [1, 1, 1], "x": [0, 1, 2]}
        y = [1, 2, 4]
        res = ols(columns, y)
        assert res.estimate("const") == pytest.approx(5 / 6, abs=1e-12)
        assert res.estimate("x") == pytest.approx(3 / 2, abs=1e-12)
        _, cov = naive_sandwich(np.column_stack([columns["const"], columns["x"]]), y)
        assert np.allclose(res.cov, cov, rtol=1e-10, atol=1e-14)

    def test_rank_deficiency_names_columns(self):
        columns = {"const": [1, 1, 1, 1], "a": [1, 2, 3, 4], "a_copy": [1, 2, 3, 4],
                   "b": [0, 1, 0, 0]}
        with pytest.raises(RankDeficient, match="^collinear design columns: a_copy$"):
            ols(columns, [1, 2, 3, 5])

    @pytest.mark.parametrize("columns, y, message", [
        ({"a": [1, 2, 3], "b": [1, 2]}, [1, 2, 3], "design columns differ in length"),
        ({}, [1, 2], "design has no columns"),
        ({"a": [1.0, math.inf]}, [1, 2], "design and outcome values must be finite"),
        ({"a": [1.0, 2.0]}, [1, math.nan], "design and outcome values must be finite"),
    ], ids=["unequal-columns", "no-columns", "inf", "nan"])
    def test_malformed_design_rejected(self, columns, y, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ols(columns, y)

    def test_zero_design_names_every_column(self):
        with pytest.raises(RankDeficient, match="^collinear design columns: a, b$"):
            ols({"b": [0, 0, 0], "a": [0, 0, 0]}, [1, 2, 3])

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        res = ols({f"x{i}": X[:, i] for i in range(4)}, y)
        assert np.max(np.abs(X.T @ res.residuals)) < 1e-9

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_sandwich_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 30, 3
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        y = X @ rng.normal(size=k) + rng.normal(size=n) * (1 + np.abs(X[:, 1]))
        res = ols({"const": X[:, 0], "x1": X[:, 1], "x2": X[:, 2]}, y)
        beta, cov = naive_sandwich(X, y)
        assert np.allclose(res.estimates, beta, rtol=1e-10, atol=1e-12)
        assert np.allclose(res.cov, cov, rtol=1e-10, atol=1e-14)

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        res = ols({f"x{i}": X[:, i] for i in range(3)}, y)
        assert np.allclose(res.cov, np.asarray(res.cov).T)
        assert np.min(np.linalg.eigvalsh(res.cov)) > -1e-12


class TestFixedEffects:
    def test_saturated_design_reproduces_cells(self, pop, params_by_year):
        panel = fixture_panel(pop, params_by_year, [ReliefCategory.FULL_CTC])
        res = fixed_effects(panel, baseline_year=2017)
        assert res.r_squared == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(res.residuals)) < 1e-10
        outcomes = np.array([outcome for _, _, outcome in panel])
        assert np.allclose(res.fitted, outcomes, atol=1e-10)

    def test_saturated_design_has_no_standard_errors(self, pop, params_by_year):
        panel = fixture_panel(pop, params_by_year, [ReliefCategory.FULL_CTC])
        res = fixed_effects(panel, baseline_year=2017)
        assert res.nobs == len(res.names) == 45
        assert res.df_resid == 0
        assert all(math.isnan(res.se(name)) for name in res.names)

    def test_group_coefficient_is_baseline_year_difference(self, pop, params_by_year):
        panel = fixture_panel(pop, params_by_year, [ReliefCategory.FULL_CTC])
        res = fixed_effects(panel, baseline_year=2017)
        cells = {(year, group): outcome for year, group, outcome in panel}
        for group in (ParentalGroup.SINGLE_FATHER, ParentalGroup.SINGLE_MOTHER):
            expected = cells[(2017, group)] - cells[(2017, ParentalGroup.MARRIED)]
            assert res.estimate(group.value) == pytest.approx(expected, abs=1e-10)

    def test_single_mother_full_credit_shortfall(self, pop, params_by_year):
        # Benchmark-calibrated data: the 2017 mother-vs-married difference.
        panel = fixture_panel(pop, params_by_year, [ReliefCategory.FULL_CTC])
        res = fixed_effects(panel, baseline_year=2017)
        assert res.estimate("single_mother") == pytest.approx(-0.2728, abs=5e-4)

    def test_combined_full_relief_sign_pattern(self, pop, params_by_year):
        panel = fixture_panel(
            pop, params_by_year, [ReliefCategory.FULL_ACTC, ReliefCategory.FULL_CTC]
        )
        res = fixed_effects(panel, baseline_year=2017)
        assert res.estimate("single_father") < 0
        assert res.estimate("single_mother") < 0

    def test_identical_groups_zero_coefficients(self):
        rows = []
        for year in (2015, 2016, 2017):
            for group in ParentalGroup:
                rows.append((year, group, 0.3 + 0.01 * (year - 2015)))
        res = fixed_effects(build_panel(rows), baseline_year=2017)
        assert res.estimate("single_father") == pytest.approx(0.0, abs=1e-12)
        assert res.estimate("single_mother") == pytest.approx(0.0, abs=1e-12)

    def test_panel_without_married_parents_rejected(self):
        rows = [(year, group, 0.5) for year in (2016, 2017)
                for group in (ParentalGroup.SINGLE_FATHER, ParentalGroup.SINGLE_MOTHER)]
        with pytest.raises(ValidationError, match="baseline group married absent from panel"):
            fixed_effects(build_panel(rows), baseline_year=2017)

    def test_incomplete_panel_rejected(self):
        rows = [(2016, ParentalGroup.MARRIED, 0.5), (2017, ParentalGroup.MARRIED, 0.6),
                (2017, ParentalGroup.SINGLE_FATHER, 0.4)]
        with pytest.raises(ValidationError):
            fixed_effects(build_panel(rows), baseline_year=2017)

    def test_duplicate_cell_rejected(self):
        with pytest.raises(ValidationError):
            build_panel([(2017, ParentalGroup.MARRIED, 0.5),
                         (2017, ParentalGroup.MARRIED, 0.6)])

    @pytest.mark.parametrize("outcome", [math.nan, math.inf, -math.inf])
    def test_non_finite_outcome_rejected(self, outcome):
        with pytest.raises(ValidationError, match="panel cell 2018, single_father"):
            build_panel([(2017, ParentalGroup.MARRIED, 0.5),
                         (2018, ParentalGroup.SINGLE_FATHER, outcome)])

    @pytest.mark.parametrize("fit", [partial(fixed_effects, baseline_year=2017), did])
    @pytest.mark.parametrize("outcome", [math.nan, math.inf])
    def test_non_finite_outcome_rejected_by_the_fit_itself(self, fit, outcome):
        panel = [(year, group, 0.5) for year in (2017, 2018) for group in ParentalGroup]
        panel[-1] = (2018, ParentalGroup.SINGLE_MOTHER, outcome)
        with pytest.raises(ValidationError, match="panel outcomes must be finite"):
            fit(panel)


class TestDid:
    @staticmethod
    def synthetic_panel(effect=0.0, shift=0.0):
        rows = []
        for year in range(2003, 2019):
            post = year >= 2018
            base = 0.40 + 0.005 * (year - 2003)
            rows.append((year, ParentalGroup.SINGLE_FATHER, base + (shift if post else 0.0)))
            rows.append((
                year,
                ParentalGroup.SINGLE_MOTHER,
                base - 0.07 + (shift if post else 0.0) + (effect if post else 0.0),
            ))
        return build_panel(rows)

    def test_injected_effect_recovered_exactly(self):
        res = did(self.synthetic_panel(effect=0.05))
        assert res.estimate("treated_post") == pytest.approx(0.05, abs=1e-12)

    def test_parallel_shift_gives_zero(self):
        res = did(self.synthetic_panel(shift=0.04))
        assert res.estimate("treated_post") == pytest.approx(0.0, abs=1e-12)

    def test_equals_four_cell_formula(self, pop, params_by_year):
        panel = fixture_panel(pop, params_by_year, [ReliefCategory.FULL_CTC],
                              years=range(2003, 2019))
        res = did(panel, post_year=2018)
        cells = {(year, group): outcome for year, group, outcome in panel}
        sm = [cells[(y, ParentalGroup.SINGLE_MOTHER)] for y in range(2003, 2018)]
        sf = [cells[(y, ParentalGroup.SINGLE_FATHER)] for y in range(2003, 2018)]
        expected = (cells[(2018, ParentalGroup.SINGLE_MOTHER)] - np.mean(sm)) - (
            cells[(2018, ParentalGroup.SINGLE_FATHER)] - np.mean(sf)
        )
        assert res.estimate("treated_post") == pytest.approx(expected, abs=1e-12)

    def test_new_rules_favored_fathers_on_fixture(self, pop, params_by_year):
        panel = fixture_panel(pop, params_by_year, [ReliefCategory.FULL_CTC],
                              years=range(2003, 2019))
        res = did(panel, post_year=2018)
        assert res.estimate("treated_post") < 0

    def test_missing_period_rejected(self):
        rows = [(2017, ParentalGroup.SINGLE_FATHER, 0.5),
                (2017, ParentalGroup.SINGLE_MOTHER, 0.4)]
        with pytest.raises(ValidationError):
            did(build_panel(rows), post_year=2018)


outcomes = st.one_of(st.sampled_from([0.0, 0.25, 0.1, 1.0]), st.floats(min_value=-1, max_value=1))


@st.composite
def did_panels(draw):
    """Unbalanced panels with every did cell filled; married rows are ignored by `did`."""
    rows = []
    for group in ParentalGroup:
        for years in (range(2014, 2018), range(2018, 2021)):
            chosen = draw(st.sets(st.sampled_from(years), min_size=group is not ParentalGroup.MARRIED))
            rows += [(year, group, draw(outcomes)) for year in sorted(chosen)]
    return build_panel(draw(st.permutations(rows)))


@st.composite
def fe_panels(draw):
    """Complete group x year panels holding the married 2017 baseline, in any row order."""
    others = draw(st.sets(st.sampled_from([ParentalGroup.SINGLE_FATHER, ParentalGroup.SINGLE_MOTHER])))
    years = draw(st.sets(st.sampled_from(range(2012, 2017)))) | {2017}
    rows = [(y, g, draw(outcomes)) for g in [ParentalGroup.MARRIED, *others] for y in sorted(years)]
    return build_panel(draw(st.permutations(rows)))


def sized_did_panel(father, mother):
    """A did panel whose cells hold the given (pre, post) row counts for single fathers and
    single mothers, around the 2018 reform, each row with its own outcome."""
    rows = [(year, group, (year * 7 + i * 3) % 10 / 8 + i / 3)
            for i, (group, (pre, post)) in enumerate(
                [(ParentalGroup.SINGLE_FATHER, father), (ParentalGroup.SINGLE_MOTHER, mother)])
            for year in range(2018 - pre, 2018 + post)]
    return build_panel(rows)


class TestCellMeansEqualExactOls:
    """`fixed_effects` and `did` give bit for bit what exact `ols` gives on their dummy designs."""

    @pytest.mark.parametrize("years", [range(2015, 2018), range(2003, 2019)])
    def test_fraction_shares(self, pop, params_by_year, years):
        # Exact shares, not read through `build_panel`: their denominators, the group sizes,
        # are no powers of two, so only their lcm puts every outcome over one integer.
        panel = [(year, group, eligibility(pop, year, group, params_by_year[year], Scenario.S1)
                  .proportion(ReliefCategory.FULL_CTC))
                 for year in years for group in ParentalGroup]
        assert_same_fit(fixed_effects(panel, baseline_year=2017), ols(*fe_design(panel, 2017)))
        if 2018 in years:
            assert_same_fit(did(panel), ols(*did_design(panel)))

    def test_shipped_fixed_effects_panel(self, pop, params_by_year):
        panel = fixture_panel(pop, params_by_year, [ReliefCategory.FULL_CTC])
        assert_same_fit(fixed_effects(panel, baseline_year=2017), ols(*fe_design(panel, 2017)))

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("outcome", ["c", "d", "e"])  # the report's did outcomes
    def test_shipped_did_panels(self, pop, params_by_year, scenario, outcome):
        panel = fixture_panel(pop, params_by_year, [ReliefCategory(outcome)], scenario,
                              range(2003, 2019))
        assert_same_fit(did(panel), ols(*did_design(panel)))

    @given(panel=did_panels())
    @example(panel=build_panel((y, g, 0.5) for y in (2016, 2017, 2018) for g in ParentalGroup))
    # Pairwise coprime cell counts: their common cube, 2520^3, is far from any one count's.
    @example(panel=sized_did_panel((5, 7), (8, 9)))
    @example(panel=sized_did_panel((9, 8), (7, 5)))
    @settings(max_examples=100, deadline=None)
    def test_unbalanced_did_panels(self, panel):
        assert_same_fit(did(panel), ols(*did_design(panel)))

    @given(panel=fe_panels())
    @settings(max_examples=60, deadline=None)
    def test_fixed_effects_panels(self, panel):
        assert_same_fit(fixed_effects(panel, baseline_year=2017), ols(*fe_design(panel, 2017)))
