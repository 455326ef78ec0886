"""Child Tax Credit eligibility microsimulation toolkit."""

from .classifier import (
    BoundRule,
    EligibilityEstimate,
    GeneralizabilityFlag,
    ReliefCategory,
    Scenario,
    classify,
    combine_categories,
    flag_categories,
)
from .counterfactual import (
    DependentGapResult,
    EliminationResult,
    ParityResult,
    PiecemealStep,
    PricedOutResult,
    credit_size_sweep,
    dependent_gap,
    eligibility,
    eliminate_refundability,
    full_relief_proportion,
    piecemeal,
    priced_out,
    restore_parity,
    run_piecemeal_table,
)
from .params import (
    Bracket,
    BracketSchedule,
    FilingStatus,
    ParentalGroup,
    ProgramParameters,
    apply_overrides,
    load_params,
    params_for_year,
    serialize_params,
)
from .population import (
    ChildrenHistogram,
    IncomeBin,
    PopulationTable,
    distribution_proportions,
    load_population,
)
from .stats import PanelObservation, RegressionResult, build_panel, did, fixed_effects, ols
from .taxmath import (
    BenefitSplit,
    HouseholdProfile,
    LiabilityMode,
    ThresholdSet,
    benefit_at_income,
    invert_benefit,
    tax_liability,
    thresholds,
)

__version__ = "0.1.0"
