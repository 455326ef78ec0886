"""Child Tax Credit eligibility microsimulation toolkit."""

from .classifier import ReliefCategory, Scenario
from .counterfactual import eligibility, eliminate_refundability, full_relief_proportion, priced_out
from .params import FilingStatus, ParentalGroup, apply_overrides, load_params
from .population import PopulationTable, load_population
from .stats import build_panel, did, fixed_effects, ols
from .taxmath import HouseholdProfile, benefit_at_income, invert_benefit, thresholds

__version__ = "0.1.0"
