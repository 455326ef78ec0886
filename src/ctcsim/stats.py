"""Least squares with heteroskedasticity-robust covariance, dummy designs.

The solver is QR-based (no normal-equations inversion); rank problems are
detected from the R factor and reported with the offending column names.
Robust covariance is the HC1 sandwich, the HC0 form scaled by n / (n - k).
A fit with no residual degrees of freedom (n == k, as in a saturated dummy
design) reproduces its outcomes exactly and has no defined covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import RankDeficient, ValidationError
from .params import ParentalGroup

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class PanelObservation:
    year: int
    group: ParentalGroup
    outcome: float


@dataclass(frozen=True)
class RegressionResult:
    names: tuple[str, ...]
    estimates: np.ndarray
    cov: np.ndarray  # all NaN when df_resid is 0
    residuals: np.ndarray
    fitted: np.ndarray
    r_squared: float
    nobs: int
    df_resid: int

    def estimate(self, name: str) -> float:
        return float(self.estimates[self.names.index(name)])

    def se(self, name: str) -> float:
        """Robust standard error of one term; NaN when df_resid is 0."""
        if self.df_resid == 0:
            return math.nan
        idx = self.names.index(name)
        return float(np.sqrt(max(self.cov[idx, idx], 0.0)))


def ols(columns: Mapping[str, Sequence[float]], y: Sequence[float]) -> RegressionResult:
    """Least squares of `y` on the named columns, HC1 robust covariance.

    Columns enter the design in mapping order. Raises RankDeficient naming
    the columns that depend on earlier ones when the design is not full rank.
    """
    names = tuple(columns)
    X = np.column_stack([np.asarray(columns[n], dtype=float) for n in names])
    yv = np.asarray(y, dtype=float)
    n, k = X.shape
    if yv.shape != (n,):
        raise ValidationError("outcome length does not match design rows")
    if n < k:
        raise RankDeficient(f"{n} observations cannot identify {k} coefficients")

    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    dependent = sorted(names[j] for j in np.flatnonzero(diag <= RANK_RTOL * diag.max()))
    if dependent:
        raise RankDeficient(f"collinear design columns: {', '.join(dependent)}")

    r_inv = np.linalg.inv(R)
    beta = r_inv @ (Q.T @ yv)
    fitted = X @ beta
    resid = yv - fitted

    df_resid = n - k
    if df_resid:
        bread = r_inv @ r_inv.T  # (X'X)^-1
        meat = (X * (resid**2)[:, None]).T @ X
        cov = bread @ meat @ bread * (n / df_resid)
        cov = (cov + cov.T) / 2.0
    else:
        cov = np.full((k, k), np.nan)

    ss_res = float(resid @ resid)
    centered = yv - yv.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    return RegressionResult(
        names=names,
        estimates=beta,
        cov=cov,
        residuals=resid,
        fitted=fitted,
        r_squared=r_squared,
        nobs=n,
        df_resid=df_resid,
    )


def build_panel(
    rows: Iterable[tuple[int, ParentalGroup, float | Fraction]]
) -> list[PanelObservation]:
    """Panel observations from (year, group, outcome) rows, one per cell."""
    panel = []
    seen = set()
    for year, group, outcome in rows:
        key = (year, group)
        if key in seen:
            raise ValidationError(f"duplicate panel cell {year}, {group.value}")
        seen.add(key)
        panel.append(PanelObservation(year, group, float(outcome)))
    return panel


def fixed_effects(
    panel: Sequence[PanelObservation],
    baseline_year: int = 2017,
    baseline_group: ParentalGroup = ParentalGroup.MARRIED,
) -> RegressionResult:
    """Saturated group/year dummy regression with all interactions.

    The baseline year and group are omitted to keep the design full rank,
    so each group dummy reads as that group's difference from the baseline
    group in the baseline year.
    """
    years = sorted({o.year for o in panel})
    groups = [g for g in ParentalGroup if any(o.group is g for o in panel)]
    if baseline_year not in years:
        raise ValidationError(f"baseline year {baseline_year} absent from panel")
    if baseline_group not in groups:
        raise ValidationError(f"baseline group {baseline_group.value} absent from panel")
    for year in years:
        for group in groups:
            if not any(o.year == year and o.group is group for o in panel):
                raise ValidationError(f"panel is missing cell {year}, {group.value}")

    other_groups = [g for g in groups if g is not baseline_group]
    other_years = [y for y in years if y != baseline_year]
    columns = {"const": [1.0] * len(panel)}
    for g in other_groups:
        columns[g.value] = [float(o.group is g) for o in panel]
    for y in other_years:
        columns[f"year_{y}"] = [float(o.year == y) for o in panel]
    for g in other_groups:
        for y in other_years:
            columns[f"{g.value}:year_{y}"] = [float(o.group is g and o.year == y) for o in panel]
    return ols(columns, [o.outcome for o in panel])


def did(
    panel: Sequence[PanelObservation],
    treated: ParentalGroup = ParentalGroup.SINGLE_MOTHER,
    control: ParentalGroup = ParentalGroup.SINGLE_FATHER,
    post_year: int = 2018,
) -> RegressionResult:
    """Two-group difference-in-differences; `treated_post` is the estimate."""
    rows = [o for o in panel if o.group in (treated, control)]
    if not any(o.year >= post_year for o in rows):
        raise ValidationError("panel has no post-period observations")
    if not any(o.year < post_year for o in rows):
        raise ValidationError("panel has no pre-period observations")
    for g in (treated, control):
        if not any(o.group is g for o in rows):
            raise ValidationError(f"panel is missing group {g.value}")
    treated_col = [float(o.group is treated) for o in rows]
    post = [float(o.year >= post_year) for o in rows]
    columns = {"const": [1.0] * len(rows), "treated": treated_col, "post": post,
               "treated_post": [t * p for t, p in zip(treated_col, post)]}
    return ols(columns, [o.outcome for o in rows])
