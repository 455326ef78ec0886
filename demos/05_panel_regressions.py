"""Panel evidence: fixed-effects levels and the 2018 difference-in-differences.

Regresses category shares on group and year dummies with all interactions
(married parents and the latest pre-reform year as baselines), then
estimates how much less single mothers gained from the 2018 changes than
single fathers did.
"""

from fractions import Fraction
from pathlib import Path

from ctcsim import (
    ParentalGroup,
    ReliefCategory,
    Scenario,
    build_panel,
    did,
    fixed_effects,
    load_params,
    load_population,
)
from ctcsim.counterfactual import eligibility

DATA = Path(__file__).resolve().parent.parent / "data"

params_by_year = load_params(DATA / "params.json")
pop = load_population(DATA / "population.csv", DATA / "children.csv")


def panel(categories, years):
    rows = []
    for year in years:
        for group in ParentalGroup:
            est = eligibility(pop, year, group, params_by_year[year], Scenario.S1)
            rows.append((year, group,
                         sum((est.proportion(c) for c in categories), Fraction(0))))
    return build_panel(rows)


print("== fixed effects on full-credit shares, 2003-2017, scenario s1 ==")
res = fixed_effects(panel([ReliefCategory.FULL_CTC], range(2003, 2018)), baseline_year=2017)
for term in ("const", "single_father", "single_mother"):
    print(f"  {term:<16} {res.estimate(term):+8.4f}")
print(f"  observations {res.nobs}, residual df {res.df_resid}, R^2 {res.r_squared:.4f}")
print("  (saturated: every cell is fitted exactly, so no standard errors are defined)")

print("\n== difference-in-differences around 2018, scenario s1 ==")
for cats, label in (
    ((ReliefCategory.FULL_ACTC,), "full refundable (c)"),
    ((ReliefCategory.FULL_CTC,), "full credit (d)"),
    ((ReliefCategory.FULL_ACTC, ReliefCategory.FULL_CTC), "full relief (c+d)"),
):
    res = did(panel(cats, range(2003, 2019)), post_year=2018)
    print(f"  {label:<22} treated x post = {res.estimate('treated_post'):+8.4f}"
          f"  (robust se {res.se('treated_post'):.4f})")
