"""Walk one household through the benefit schedule.

Shows how the credit and refund components build up with income for a
single parent with one child, and where the six eligibility boundaries
fall, for a pre-reform year and for 2018.
"""

from pathlib import Path

from ctcsim import (
    HouseholdProfile,
    ParentalGroup,
    benefit_at_income,
    load_params,
    thresholds,
)
from ctcsim.money import format_money

DATA = Path(__file__).resolve().parent.parent / "data"

params_by_year = load_params(DATA / "params.json")
household = HouseholdProfile.one_child(ParentalGroup.SINGLE_MOTHER)

for year in (2009, 2018):
    params = params_by_year[year]
    ts = thresholds(household, params)
    print(f"== {year}: single parent, one child ==")
    print(f"  refund floor        {format_money(ts.t_refund_floor):>12}")
    print(f"  full refundable at  {format_money(ts.t_full_actc):>12}")
    print(f"  full benefit, any pathway at {format_money(ts.t_full_combined):>12}")
    print(f"  full credit at      {format_money(ts.t_full_ctc):>12}")
    print(f"  phaseout starts     {format_money(ts.t_phaseout_start):>12}")
    print(f"  nothing left at     {format_money(ts.t_total_phaseout):>12}")
    print("  income      credit      refund       total")
    for income in (0, 5_000, 10_000, 15_000, 25_000, 40_000, 80_000, 90_000):
        split = benefit_at_income(income, household, params)
        print(
            f"  {income:>7,}  {format_money(split.credit):>9}"
            f"  {format_money(split.refund):>9}  {format_money(split.total):>9}"
        )
    print()
