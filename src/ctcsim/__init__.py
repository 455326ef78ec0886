"""Child Tax Credit eligibility microsimulation toolkit."""

from .classifier import (
    GeneralizabilityFlag,
    ReliefCategory,
    Scenario,
    classify,
    flag_categories,
)
from .counterfactual import (
    credit_size_sweep,
    eligibility,
    eliminate_refundability,
    full_relief_proportion,
    priced_out,
    restore_parity,
)
from .params import (
    BracketSchedule,
    FilingStatus,
    ParentalGroup,
    ProgramParameters,
    apply_overrides,
    load_params,
    params_for_year,
)
from .population import PopulationTable, load_population
from .stats import build_panel, did, fixed_effects, ols
from .taxmath import (
    HouseholdProfile,
    LiabilityMode,
    benefit_at_income,
    invert_benefit,
    tax_liability,
    thresholds,
)

__version__ = "0.1.0"
