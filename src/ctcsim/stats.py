"""Exact least squares with heteroskedasticity-robust (HC1) covariance.

Every number is computed exactly from the inputs and rounded once to a float,
so no result depends on a solver's rounding or a rank tolerance.

`ols` is the general path: Gauss-Jordan over `Fraction` on the normal
equations, where a zero pivot names a column that depends on earlier ones.
`fixed_effects` and `did` are saturated two-way cell-means models, whose
coefficients are contrasts of at most four cell means (Angrist & Pischke,
*Mostly Harmless Econometrics*, ch. 3 and 5); they are computed from integer
cell statistics without building a design. Robust covariance is the HC1
sandwich, the HC0 form scaled by n / (n - k). A fit with no residual degrees
of freedom (n == k) reproduces its outcomes exactly and has no covariance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import RankDeficient, ValidationError
from .params import ParentalGroup
from .record import Record

PanelRow = tuple[int, ParentalGroup, float]  # (year, group, outcome)


class RegressionResult(Record):
    names: tuple[str, ...]
    estimates: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]  # every entry math.nan when df_resid is 0
    residuals: tuple[float, ...]
    fitted: tuple[float, ...]
    r_squared: float
    nobs: int
    df_resid: int

    def estimate(self, name: str) -> float:
        return self.estimates[self.names.index(name)]

    def se(self, name: str) -> float:
        """Robust standard error of one term; NaN when df_resid is 0."""
        idx = self.names.index(name)
        return math.sqrt(self.cov[idx][idx])


def _no_cov(k: int) -> tuple[tuple[float, ...], ...]:
    return ((math.nan,) * k,) * k


def ols(columns: Mapping[str, Sequence[float]], y: Sequence[float]) -> RegressionResult:
    """Least squares of `y` on the named columns, HC1 robust covariance.

    Columns enter the design in mapping order. Raises RankDeficient naming
    the columns that depend on earlier ones when the design is not full rank.
    """
    names = tuple(columns)
    if not names:
        raise ValidationError("design has no columns")
    try:
        X = [[Fraction(v) for v in columns[name]] for name in names]  # one list per column
        yv = [Fraction(v) for v in y]
    except (ValueError, OverflowError):
        raise ValidationError("design and outcome values must be finite") from None
    n, k = len(X[0]), len(names)
    if any(len(col) != n for col in X):
        raise ValidationError("design columns differ in length")
    if len(yv) != n:
        raise ValidationError("outcome length does not match design rows")
    if n < k:
        raise RankDeficient(f"{n} observations cannot identify {k} coefficients")

    # Gauss-Jordan on [X'X | I]. X'X is positive semidefinite, so a zero pivot
    # means that column lies in the span of the columns before it. Dummy designs
    # are mostly zeros, so zero terms are skipped.
    a = [[sum((u * v for u, v in zip(X[i], X[j]) if u and v), Fraction(0)) for j in range(k)]
         + [Fraction(i == j) for j in range(k)] for i in range(k)]
    dependent = []
    for j in range(k):
        if not a[j][j]:
            dependent.append(names[j])
            continue
        pivot = a[j] = [v / a[j][j] for v in a[j]]
        for i in range(k):
            if i != j and a[i][j]:
                f = a[i][j]
                a[i] = [u - f * v if v else u for u, v in zip(a[i], pivot)]
    if dependent:
        raise RankDeficient(f"collinear design columns: {', '.join(sorted(dependent))}")
    bread = [row[k:] for row in a]  # (X'X)^-1

    xty = [sum(u * v for u, v in zip(col, yv)) for col in X]
    beta = [sum(b * t for b, t in zip(row, xty)) for row in bread]
    fitted = [sum(col[i] * b for col, b in zip(X, beta)) for i in range(n)]
    resid = [u - v for u, v in zip(yv, fitted)]

    df_resid = n - k
    if df_resid:
        e2 = [e * e for e in resid]
        meat = [[sum(w * u * v for w, u, v in zip(e2, X[i], X[j])) for j in range(k)]
                for i in range(k)]
        half = [[sum(b * m for b, m in zip(row, col)) for col in zip(*meat)] for row in bread]
        scale = Fraction(n, df_resid)
        cov = tuple(tuple(float(sum(h * b for h, b in zip(row, col)) * scale)
                          for col in zip(*bread)) for row in half)
    else:
        cov = _no_cov(k)

    mean = sum(yv) / n
    ss_tot = sum((v - mean) ** 2 for v in yv)
    ss_res = sum(e * e for e in resid)
    return RegressionResult(
        names=names,
        estimates=tuple(map(float, beta)),
        cov=cov,
        residuals=tuple(map(float, resid)),
        fitted=tuple(map(float, fitted)),
        r_squared=1.0 if not ss_tot else float(1 - ss_res / ss_tot),
        nobs=n,
        df_resid=df_resid,
    )


def _two_way(obs: Sequence[tuple[int, int, float | Fraction]], rows: Sequence[str],
             cols: Sequence[str], sep: str) -> RegressionResult:
    """Saturated two-way cell-means fit of each (row index, col index, outcome).

    Equals `ols` on the dummy design with terms `const`, one per row after
    `rows[0]`, one per column after `cols[0]` and one per pair of those (named
    row + sep + col), in that order. Each outcome is read exactly as an integer
    over the lcm of the outcomes' denominators (for floats, the largest, a power
    of two), so each cell keeps an exact integer count, sum and sum of squares.
    Every cell mean is then an integer over one common denominator, and every
    variance term one over its cube, so each result is one integer sum and one
    correctly rounded int / int.
    """
    width = len(cols)
    k = len(rows) * width
    try:
        ratios = [(r * width + c, *y.as_integer_ratio()) for r, c, y in obs]
    except (ValueError, OverflowError):
        raise ValidationError("panel outcomes must be finite") from None
    unit = math.lcm(*(den for _, _, den in ratios))
    cells = [(cell, num * (unit // den)) for cell, num, den in ratios]
    count, total, squares = [0] * k, [0] * k, [0] * k
    for cell, v in cells:
        count[cell] += 1
        total[cell] += v
        squares[cell] += v * v
    for cell, m in enumerate(count):
        if not m:
            raise ValidationError(
                f"panel has no observations for {rows[cell // width]}, {cols[cell % width]}")

    # Each term as {cell: ±1}, the contrast of cell means it estimates.
    terms = {"const": {0: 1}}
    terms.update({rows[r]: {r * width: 1, 0: -1} for r in range(1, len(rows))})
    terms.update({cols[c]: {c: 1, 0: -1} for c in range(1, width)})
    terms.update({f"{rows[r]}{sep}{cols[c]}": {r * width + c: 1, r * width: -1, c: -1, 0: 1}
                  for r in range(1, len(rows)) for c in range(1, width)})

    common = math.lcm(*count)  # cell c's mean is means[c] / (common * unit)
    means = [s * (common // m) for m, s in zip(count, total)]
    estimates = tuple(sum(w * means[c] for c, w in weights.items()) / (common * unit)
                      for weights in terms.values())
    cell_fit = [s / (m * unit) for m, s in zip(count, total)]
    fitted = tuple(cell_fit[cell] for cell, _ in cells)
    residuals = tuple((v * count[cell] - total[cell]) / (count[cell] * unit) for cell, v in cells)
    n = len(cells)
    df_resid = n - k
    if not df_resid:  # one observation per cell: an exact fit
        return RegressionResult(tuple(terms), estimates, _no_cov(k), residuals, fitted, 1.0, n, 0)

    # n_c times each cell's sum of squared residuals, in units of 1 / unit^2.
    spread = [m * q - s * s for m, s, q in zip(count, total, squares)]
    # HC1: cov(b_i, b_j) = n / (n - k) · Σ_c w_ic w_jc SSR_c / n_c^2, where
    # SSR_c / n_c^2 = var[c] / (common^3 · unit^2).
    cube = common ** 3
    var = [d * (cube // m ** 3) for m, d in zip(count, spread)]
    scale = cube * unit * unit * df_resid
    cov = tuple(tuple(sum(w * wj[c] * var[c] for c, w in wi.items() if c in wj) * n / scale
                      for wj in terms.values()) for wi in terms.values())
    ss_res = sum(d * (common // m) for m, d in zip(count, spread))  # over common
    ss_tot = n * sum(squares) - sum(total) ** 2  # n times the total sum of squares
    r_squared = 1.0 if not ss_tot else (common * ss_tot - n * ss_res) / (common * ss_tot)
    return RegressionResult(tuple(terms), estimates, cov, residuals, fitted, r_squared, n, df_resid)


def build_panel(rows: Iterable[tuple[int, ParentalGroup, float | Fraction]]) -> list[PanelRow]:
    """Panel rows from (year, group, outcome) rows: one per cell, each outcome finite."""
    panel = []
    seen = set()
    for year, group, outcome in rows:
        key = (year, group)
        if key in seen:
            raise ValidationError(f"duplicate panel cell {year}, {group.value}")
        seen.add(key)
        if not math.isfinite(outcome):
            raise ValidationError(f"panel cell {year}, {group.value} has outcome {outcome}")
        panel.append((year, group, float(outcome)))
    return panel


def fixed_effects(panel: Sequence[PanelRow], baseline_year: int = 2017) -> RegressionResult:
    """Saturated group/year dummy regression with all interactions.

    The baseline year and the married group are omitted to keep the design
    full rank, so each group dummy reads as that group's difference from
    married parents in the baseline year.
    """
    groups = {group for _, group, _ in panel}
    years = {year for year, _, _ in panel}
    if baseline_year not in years:
        raise ValidationError(f"baseline year {baseline_year} absent from panel")
    if ParentalGroup.MARRIED not in groups:
        raise ValidationError("baseline group married absent from panel")
    rows = [g for g in ParentalGroup if g in groups]  # married first
    cols = [baseline_year] + sorted(years - {baseline_year})
    row = {g: i for i, g in enumerate(rows)}
    col = {y: j for j, y in enumerate(cols)}
    return _two_way([(row[group], col[year], outcome) for year, group, outcome in panel],
                    [g.value for g in rows], [f"year_{y}" for y in cols], ":")


def did(panel: Sequence[PanelRow], post_year: int = 2018) -> RegressionResult:
    """Difference-in-differences of single mothers (treated) against single
    fathers (control), post from `post_year` on; `treated_post` is the estimate."""
    pair = (ParentalGroup.SINGLE_FATHER, ParentalGroup.SINGLE_MOTHER)
    obs = [(group is pair[1], year >= post_year, outcome)
           for year, group, outcome in panel if group in pair]
    present = {(treated, post) for treated, post, _ in obs}
    for treated, group in enumerate(pair):
        for post, period in enumerate((f"before {post_year}", f"from {post_year} on")):
            if (treated, post) not in present:
                raise ValidationError(f"did: no {group.value} rows {period}")
    return _two_way(obs, ("control", "treated"), ("pre", "post"), "_")
