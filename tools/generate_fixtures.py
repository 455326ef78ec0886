#!/usr/bin/env python3
"""Regenerate the shipped data files under data/.

Outputs:
  data/params.json      program rules per year and filing status (statutory)
  data/benchmarks.json  benchmark proportions the test suite pins
  data/population.csv   synthetic binned population, calibrated so that
                        classifying it reproduces the benchmark proportions
  data/children.csv     children histograms matching the benchmark averages

The population is synthetic: bin masses are solved from the cumulative
shares the benchmark tables imply at every bin edge they touch, then spread
uniformly inside unconstrained stretches. Classification of these files
therefore reproduces the benchmark tables to within their printed rounding,
without shipping any survey microdata.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctcsim.classifier import CATEGORY_ORDER, Scenario, _cut, category_cuts
from ctcsim.counterfactual import full_relief_cuts, piecemeal_walk
from ctcsim.params import ParentalGroup, load_params
from ctcsim.population import BIN_WIDTH, INCOME_CEILING
from ctcsim.record import replace
from ctcsim.taxmath import HouseholdProfile, thresholds

DATA = ROOT / "data"

YEARS = range(2003, 2019)
GROUPS = ("married", "single_father", "single_mother")

# ---------------------------------------------------------------------------
# Statutory program rules per year:
# (sd_mfj, sd_hoh, exemption_pp, ten_pct_edge_mfj, ten_pct_edge_hoh,
#  second_rate, refund_threshold, refund_rate, ctc, actc,
#  phaseout_mfj, phaseout_hoh)

PARAMS_ROWS = {
    2003: (9500, 7000, 3050, 14000, 10000, "0.15", 10500, "0.10", 1000, 1000, 110000, 75000),
    2004: (9700, 7150, 3100, 14300, 10200, "0.15", 10750, "0.15", 1000, 1000, 110000, 75000),
    2005: (10000, 7300, 3200, 14600, 10450, "0.15", 11000, "0.15", 1000, 1000, 110000, 75000),
    2006: (10300, 7550, 3300, 15100, 10750, "0.15", 11300, "0.15", 1000, 1000, 110000, 75000),
    2007: (10700, 7850, 3400, 15650, 11200, "0.15", 11750, "0.15", 1000, 1000, 110000, 75000),
    2008: (10900, 8000, 3500, 16050, 11450, "0.15", 8500, "0.15", 1000, 1000, 110000, 75000),
    2009: (11400, 8350, 3650, 16700, 11950, "0.15", 3000, "0.15", 1000, 1000, 110000, 75000),
    2010: (11400, 8400, 3650, 16750, 11950, "0.15", 3000, "0.15", 1000, 1000, 110000, 75000),
    2011: (11600, 8500, 3700, 17000, 12150, "0.15", 3000, "0.15", 1000, 1000, 110000, 75000),
    2012: (11900, 8700, 3800, 17400, 12400, "0.15", 3000, "0.15", 1000, 1000, 110000, 75000),
    2013: (12200, 8950, 3900, 17850, 12750, "0.15", 3000, "0.15", 1000, 1000, 110000, 75000),
    2014: (12400, 9100, 3950, 18150, 12950, "0.15", 3000, "0.15", 1000, 1000, 110000, 75000),
    2015: (12600, 9250, 4000, 18450, 13150, "0.15", 3000, "0.15", 1000, 1000, 110000, 75000),
    2016: (12600, 9300, 4050, 18550, 13250, "0.15", 3000, "0.15", 1000, 1000, 110000, 75000),
    2017: (12700, 9350, 4050, 18650, 13350, "0.15", 3000, "0.15", 1000, 1000, 110000, 75000),
    2018: (24000, 18000, 0, 19050, 13600, "0.12", 2500, "0.15", 2000, 1400, 400000, 200000),
}


def params_records() -> list[dict]:
    records = []
    for year, row in PARAMS_ROWS.items():
        (sd_m, sd_h, ex_pp, edge_m, edge_h, rate2,
         refund_floor, refund_rate, ctc, actc, po_m, po_h) = row
        for status, sd, edge, po in (
            ("married_joint", sd_m, edge_m, po_m),
            ("head_of_household", sd_h, edge_h, po_h),
        ):
            records.append({
                "year": year,
                "filing_status": status,
                "standard_deduction": sd,
                "exemption_per_person": ex_pp,
                "brackets": [
                    {"upper": edge, "rate": 0.10},
                    {"rate": float(rate2)},
                ],
                "ctc_per_child": ctc,
                "actc_per_child": actc,
                "refund_threshold": refund_floor,
                "refund_rate": float(refund_rate),
                "phaseout_start": po,
                "phaseout_rate": 0.05,
            })
    return records


# ---------------------------------------------------------------------------
# Benchmark tables: eligibility proportions per category, scenario S1/S2,
# ordered 2003..2018; children averages; baseline full-relief counts used to
# size each group; credit sweeps and parameter-walk shares (percent).

ELIGIBILITY_S1 = {
    "married": {
        "a": [0.0235, 0.0222, 0.0218, 0.0210, 0.0178, 0.0110, 0.0038, 0.0035, 0.0042, 0.0043, 0.0042, 0.0046, 0.0033, 0.0040, 0.0033, 0.0049],
        "b": [0.0383, 0.0262, 0.0387, 0.0368, 0.0341, 0.0263, 0.0074, 0.0106, 0.0083, 0.0089, 0.0084, 0.0062, 0.0068, 0.0080, 0.0067, 0.0139],
        "c": [0.0905, 0.1035, 0.0804, 0.1090, 0.1027, 0.1119, 0.1407, 0.1518, 0.1831, 0.1752, 0.1748, 0.1682, 0.1695, 0.1610, 0.1457, 0.2376],
        "d": [0.8477, 0.8481, 0.8591, 0.8331, 0.8453, 0.8508, 0.8480, 0.8342, 0.8044, 0.8115, 0.8126, 0.8210, 0.8204, 0.8271, 0.8443, 0.7437],
        "e": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "f": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    },
    "single_father": {
        "a": [0.0406, 0.0395, 0.0393, 0.0394, 0.0350, 0.0204, 0.0064, 0.0126, 0.0063, 0.0059, 0.0062, 0.0054, 0.0082, 0.0093, 0.0053, 0.0083],
        "b": [0.0309, 0.0336, 0.0335, 0.0329, 0.0326, 0.0435, 0.0113, 0.0142, 0.0155, 0.0163, 0.0112, 0.0086, 0.0167, 0.0163, 0.0101, 0.0142],
        "c": [0.0794, 0.0738, 0.0736, 0.0680, 0.0640, 0.1027, 0.1553, 0.1481, 0.1614, 0.1333, 0.1563, 0.1481, 0.1388, 0.1302, 0.1148, 0.2103],
        "d": [0.6781, 0.6649, 0.6709, 0.6581, 0.6723, 0.6449, 0.6017, 0.6334, 0.6263, 0.6561, 0.6306, 0.6299, 0.6138, 0.6167, 0.6456, 0.7672],
        "e": [0.1580, 0.1726, 0.1649, 0.1836, 0.1811, 0.1737, 0.2052, 0.1776, 0.1724, 0.1698, 0.1818, 0.1935, 0.2049, 0.2113, 0.2076, 0.0],
        "f": [0.0130, 0.0157, 0.0178, 0.0180, 0.0151, 0.0148, 0.0200, 0.0142, 0.0182, 0.0186, 0.0139, 0.0146, 0.0175, 0.0161, 0.0166, 0.0],
    },
    "single_mother": {
        "a": [0.1106, 0.1132, 0.1126, 0.1013, 0.0978, 0.0585, 0.0190, 0.0230, 0.0246, 0.0225, 0.0196, 0.0215, 0.0183, 0.0209, 0.0203, 0.0195],
        "b": [0.0869, 0.0787, 0.0698, 0.0769, 0.0789, 0.1137, 0.0476, 0.0433, 0.0464, 0.0422, 0.0374, 0.0451, 0.0373, 0.0367, 0.0342, 0.0557],
        "c": [0.1213, 0.1166, 0.1252, 0.1265, 0.1140, 0.1653, 0.2692, 0.2589, 0.2616, 0.2646, 0.2687, 0.2529, 0.2612, 0.2521, 0.2368, 0.3405],
        "d": [0.5750, 0.5889, 0.5873, 0.5767, 0.5987, 0.5432, 0.5344, 0.5532, 0.5600, 0.5569, 0.5521, 0.5571, 0.5511, 0.5666, 0.5715, 0.5844],
        "e": [0.0974, 0.0925, 0.0957, 0.1114, 0.1025, 0.1090, 0.1179, 0.1115, 0.0993, 0.1018, 0.1140, 0.1142, 0.1190, 0.1134, 0.1267, 0.0],
        "f": [0.0088, 0.0102, 0.0094, 0.0071, 0.0080, 0.0102, 0.0119, 0.0102, 0.0081, 0.0120, 0.0082, 0.0091, 0.0131, 0.0103, 0.0105, 0.0],
    },
}

ELIGIBILITY_S2 = {
    "married": {
        "a": [0.0152, 0.0140, 0.0131, 0.0210, 0.0178, 0.0070, 0.0017, 0.0016, 0.0017, 0.0016, 0.0016, 0.0017, 0.0016, 0.0022, 0.0016, 0.0030],
        "b": [0.0883, 0.0708, 0.0656, 0.0559, 0.0667, 0.0418, 0.0268, 0.0325, 0.0300, 0.0285, 0.0307, 0.0245, 0.0243, 0.0218, 0.0219, 0.0395],
        "c": [0.1373, 0.1849, 0.1755, 0.1669, 0.1908, 0.2065, 0.2614, 0.2705, 0.2720, 0.2724, 0.2692, 0.2936, 0.2937, 0.2951, 0.2795, 0.3749],
        "d": [0.7592, 0.7303, 0.7459, 0.7562, 0.7247, 0.7448, 0.7101, 0.6955, 0.6963, 0.6975, 0.6984, 0.6801, 0.6803, 0.6809, 0.6970, 0.5826],
        "e": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "f": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    },
    "single_father": {
        "a": [0.0290, 0.0268, 0.0251, 0.0394, 0.0350, 0.0144, 0.0038, 0.0058, 0.0019, 0.0043, 0.0027, 0.0021, 0.0050, 0.0031, 0.0039, 0.0059],
        "b": [0.0651, 0.0665, 0.0658, 0.0574, 0.0478, 0.0674, 0.0390, 0.0473, 0.0493, 0.0443, 0.0470, 0.0366, 0.0453, 0.0492, 0.0293, 0.0441],
        "c": [0.1241, 0.1134, 0.1201, 0.0958, 0.1381, 0.1492, 0.1914, 0.1834, 0.2013, 0.2043, 0.2282, 0.2087, 0.1960, 0.1836, 0.1809, 0.3071],
        "d": [0.5828, 0.5804, 0.5803, 0.5767, 0.5566, 0.5463, 0.5109, 0.5470, 0.5291, 0.5262, 0.5022, 0.5073, 0.5005, 0.5102, 0.5285, 0.6429],
        "e": [0.1990, 0.2129, 0.2087, 0.2307, 0.2226, 0.2226, 0.2550, 0.2165, 0.2184, 0.2209, 0.2199, 0.2452, 0.2532, 0.2539, 0.2573, 0.0],
        "f": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    },
    "single_mother": {
        "a": [0.0758, 0.0741, 0.0763, 0.1013, 0.0978, 0.0399, 0.0096, 0.0089, 0.0113, 0.0095, 0.0087, 0.0081, 0.0086, 0.0079, 0.0107, 0.0098],
        "b": [0.2068, 0.1539, 0.1437, 0.1203, 0.1147, 0.1682, 0.1219, 0.1207, 0.1199, 0.1156, 0.1156, 0.1227, 0.1051, 0.1051, 0.0972, 0.1186],
        "c": [0.1209, 0.1668, 0.2117, 0.2062, 0.2089, 0.2069, 0.3107, 0.3081, 0.3207, 0.3157, 0.3105, 0.2988, 0.3090, 0.3435, 0.3316, 0.4378],
        "d": [0.4752, 0.4828, 0.4428, 0.4376, 0.4491, 0.4476, 0.4092, 0.4200, 0.4204, 0.4232, 0.4237, 0.4266, 0.4274, 0.3953, 0.3983, 0.4337],
        "e": [0.1212, 0.1224, 0.1254, 0.1346, 0.1295, 0.1374, 0.1485, 0.1423, 0.1277, 0.1360, 0.1415, 0.1439, 0.1499, 0.1482, 0.1622, 0.0],
        "f": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    },
}

CHILDREN_AVG = {
    "married": [1.89, 1.90, 1.90, 1.89, 1.89, 1.90, 1.89, 1.89, 1.88, 1.89, 1.89, 1.88, 1.90, 1.89, 1.89, 1.89],
    "single_father": [1.68, 1.71, 1.71, 1.68, 1.68, 1.69, 1.67, 1.68, 1.67, 1.67, 1.69, 1.71, 1.69, 1.70, 1.66, 1.69],
    "single_mother": [1.72, 1.75, 1.76, 1.74, 1.73, 1.75, 1.74, 1.74, 1.71, 1.73, 1.74, 1.73, 1.73, 1.74, 1.74, 1.75],
}

# Households qualifying for full relief at baseline parity (years 2003..2017);
# used with the category-c+d shares to size each group.
FULL_RELIEF_OLD_S1 = {
    "married": [33029000, 32463000, 32110000, 31101000, 30228000, 28093000, 27796000,
                26723000, 25817000, 24739000, 23995000, 23216000, 22486000, 21127000, 20841000],
    "single_father": [4603000, 4512000, 4539000, 4470000, 4204000, 4236000, 4002000,
                      3916000, 3768000, 3867000, 3800000, 3630000, 3475000, 3613000, 3472000],
    "single_mother": [8119000, 8947000, 8816000, 8502000, 8719000, 8484000, 8095000,
                      7971000, 8015000, 8088000, 8046000, 7792000, 8037000, 7889000, 7461000],
}

# 2018 group sizes chosen so the refundability-floor elimination aggregates
# hit their benchmark household counts under both scenarios.
TOTALS_2018 = {"married": 21_200_000, "single_father": 4_804_700, "single_mother": 8_576_500}

SWEEP_CREDITS = [500, 600, 700, 800, 900, 1000, 1100, 1200, 1300, 1400,
                 1500, 1600, 1700, 1800, 1900, 2000, 3000, 3600]

SWEEP = {
    "2017": {
        "s1": {
            "married": [99.29, 99.29, 99.00, 99.00, 99.00, 99.00, 98.38, 98.38, 98.38, 98.38, 97.65, 97.65, 97.65, 97.65, 96.56, 96.56, 92.67, 90.68],
            "single_father": [76.61, 76.61, 76.04, 76.04, 76.04, 76.04, 75.30, 75.30, 75.30, 75.30, 74.24, 74.24, 74.24, 74.24, 72.54, 72.54, 67.65, 64.56],
            "single_mother": [82.51, 82.51, 80.83, 80.83, 80.83, 80.83, 78.26, 78.26, 78.26, 78.26, 75.49, 75.49, 75.49, 75.49, 72.15, 72.15, 61.46, 57.15],
        },
        "s2": {
            "married": [99.00, 99.00, 98.38, 98.38, 97.65, 97.65, 96.56, 96.56, 95.67, 95.67, 94.04, 94.04, 92.67, 92.67, 90.68, 90.68, 79.46, 69.70],
            "single_father": [73.30, 72.73, 72.73, 71.99, 71.99, 70.94, 70.94, 69.23, 69.23, 69.23, 68.05, 68.05, 65.86, 65.86, 64.35, 64.35, 52.85, 42.20],
            "single_mother": [78.33, 78.33, 78.33, 75.75, 75.75, 72.99, 72.99, 69.64, 69.64, 66.59, 66.59, 62.28, 62.28, 58.96, 58.96, 58.96, 39.83, 30.33],
        },
    },
    "2018": {
        "s1": {
            "married": [99.16, 99.16, 99.16, 98.83, 98.83, 98.83, 98.83, 98.12, 98.12, 98.12, 98.12, 97.51, 97.51, 97.51, 96.48, 96.48, 94.05, 90.62],
            "single_father": [98.97, 98.97, 98.97, 98.67, 98.67, 98.67, 98.67, 97.75, 97.75, 97.75, 97.75, 96.96, 96.96, 96.96, 95.00, 95.00, 92.03, 87.18],
            "single_mother": [96.37, 96.37, 96.37, 95.23, 95.23, 95.23, 95.23, 92.49, 92.49, 92.49, 92.49, 90.39, 90.39, 90.39, 87.15, 87.15, 80.35, 73.62],
        },
        "s2": {
            "married": [98.83, 98.83, 98.12, 98.12, 97.51, 97.51, 96.48, 96.48, 95.75, 95.75, 94.05, 94.05, 92.74, 92.74, 90.62, 90.62, 79.97, 70.81],
            "single_father": [98.97, 98.67, 98.67, 98.67, 97.75, 96.96, 96.96, 96.96, 95.00, 95.00, 94.30, 94.30, 92.03, 92.03, 90.09, 90.09, 76.72, 70.69],
            "single_mother": [96.37, 95.23, 95.23, 95.23, 92.49, 90.39, 90.39, 87.15, 87.15, 84.57, 84.57, 84.57, 80.35, 80.35, 77.38, 77.38, 58.44, 49.05],
        },
    },
}

# Parameter walks (percent per step 1..8) on the 2018 distribution.
WALK_1A = {
    "s1": {
        "married": [74.37, 84.75, 74.37, 74.37, 74.37, 74.37, 74.37, 74.37],
        "single_father": [76.72, 60.52, 50.05, 50.05, 50.05, 76.72, 76.72, 76.72],
        "single_mother": [58.44, 57.75, 42.56, 42.56, 42.56, 58.44, 58.44, 58.44],
    },
    "s2": {
        "married": [58.26, 76.67, 58.26, 61.86, 61.86, 61.86, 61.86, 58.26],
        "single_father": [64.29, 52.30, 37.28, 37.28, 37.28, 67.92, 67.92, 64.29],
        "single_mother": [43.37, 47.71, 30.92, 30.92, 30.92, 49.05, 49.05, 43.37],
    },
}

WALK_1B = {
    "s1": {
        "married": [23.76, 14.08, 13.37, 13.37, 13.37, 13.37, 23.76, 23.76],
        "single_father": [21.03, 11.49, 10.57, 11.90, 11.90, 11.90, 21.03, 21.03],
        "single_mother": [34.05, 21.61, 18.86, 21.69, 21.69, 21.69, 34.05, 34.05],
    },
    "s2": {
        "married": [37.49, 20.85, 19.09, 19.09, 19.09, 19.09, 33.89, 37.49],
        "single_father": [30.71, 14.02, 12.06, 12.06, 12.06, 12.06, 27.08, 30.71],
        "single_mother": [43.78, 24.55, 18.73, 21.72, 24.31, 24.31, 38.11, 43.78],
    },
}

# Full relief (either pathway) for 2018: baseline full-credit share, after
# refundable parity at 2000, and additionally with the floor removed.
PARITY_STEPS = {
    "s1": {
        "married": [74.37, 96.48, 97.51],
        "single_father": [76.72, 95.00, 96.96],
        "single_mother": [58.44, 87.15, 90.39],
    },
    "s2": {
        "married": [58.26, 92.74, 92.74],
        "single_father": [64.29, 92.03, 94.30],
        "single_mother": [43.37, 80.35, 84.57],
    },
}

ELIMINATION_AGGREGATE = {"s1": 311_000, "s2": 176_000}

PRICED_OUT_2017_S1_MARRIED = 14.72


def benchmarks_payload() -> dict:
    return {
        "years": list(YEARS),
        "eligibility": {"s1": ELIGIBILITY_S1, "s2": ELIGIBILITY_S2},
        "children_average": CHILDREN_AVG,
        "full_relief_old_s1": FULL_RELIEF_OLD_S1,
        "totals_2018": TOTALS_2018,
        "sweep_credits": SWEEP_CREDITS,
        "sweep": SWEEP,
        "walk_1a": WALK_1A,
        "walk_1b": WALK_1B,
        "parity_steps": PARITY_STEPS,
        "elimination_aggregate": ELIMINATION_AGGREGATE,
        "priced_out_2017_s1_married_pct": PRICED_OUT_2017_S1_MARRIED,
    }


# ---------------------------------------------------------------------------
# Calibration: turn benchmark shares into cumulative pins at bin edges, then
# solve for bin masses.

PIN_TOL = 3.5e-4


class Pins:
    def __init__(self, key):
        self.key = key
        self.values: dict[int, float] = {0: 0.0, INCOME_CEILING: 1.0}

    def set(self, edge: int, value: float, source: str):
        edge = int(min(max(edge, 0), INCOME_CEILING))
        value = min(max(value, 0.0), 1.0)
        if edge in self.values:
            old = self.values[edge]
            if abs(old - value) > PIN_TOL:
                raise SystemExit(
                    f"inconsistent pin {self.key} @ {edge}: {old:.5f} vs {value:.5f} ({source})"
                )
            self.values[edge] = (old + value) / 2.0
        else:
            self.values[edge] = value

    def get(self, edge: int):
        return self.values.get(int(min(max(edge, 0), INCOME_CEILING)))

    def monotone(self) -> list[tuple[int, float]]:
        out = []
        hi = 0.0
        for edge in sorted(self.values):
            value = self.values[edge]
            if value < hi - PIN_TOL:
                raise SystemExit(f"pins for {self.key} decrease at {edge}: {value:.5f} < {hi:.5f}")
            hi = max(hi, value)
            out.append((edge, hi))
        return out


def group_enum(name: str) -> ParentalGroup:
    return ParentalGroup(name)


def n_for(year: int, group: str) -> int:
    if year == 2018:
        return TOTALS_2018[group]
    idx = year - 2003
    shares = ELIGIBILITY_S1[group]
    cd = shares["c"][idx] + shares["d"][idx]
    raw = FULL_RELIEF_OLD_S1[group][idx] / cd
    return int(round(raw / 100.0)) * 100


def children_profile(year: int, group: str) -> HouseholdProfile:
    avg = Fraction(str(CHILDREN_AVG[group][year - 2003]))
    return HouseholdProfile(group_enum(group), avg)


def eligibility_pins(pins: Pins, year: int, group: str, params, scenario: Scenario):
    table = ELIGIBILITY_S1 if scenario is Scenario.S1 else ELIGIBILITY_S2
    shares = [table[group][c.value][year - 2003] for c in CATEGORY_ORDER]
    profile = (HouseholdProfile.one_child(group_enum(group))
               if scenario.fixed_one_child else children_profile(year, group))
    cuts = category_cuts(thresholds(profile, params), scenario.rule)
    cum = 0.0
    for cut, share in zip(cuts, shares[:-1]):
        cum += share
        if 0 < cut < INCOME_CEILING:
            pins.set(cut, cum, f"eligibility {scenario.value}")


# Benchmark sweep cells that conflict with the rest of the table (they repeat
# their left neighbor; the implied threshold sits past the bin midpoint).
SWEEP_SKIP = {
    (2018, "s2", 800, "single_father"),
    (2018, "s2", 800, "single_mother"),
}


def sweep_pins(pins: Pins, year: int, group: str, params, scenario: Scenario):
    rows = SWEEP[str(year)][scenario.value][group]
    profile = (HouseholdProfile.one_child(group_enum(group))
               if scenario.fixed_one_child else children_profile(year, group))
    phaseout = params.for_status(profile.group.filing_status).phaseout_start
    hi = min(_cut(phaseout.numerator, phaseout.denominator, True, scenario.rule),
             INCOME_CEILING)
    cum_hi = pins.get(hi)
    if cum_hi is None:
        return
    for credit, pct in zip(SWEEP_CREDITS, rows):
        if (year, scenario.value, credit, group) in SWEEP_SKIP:
            continue
        # Benchmark sweep rows track the refund phase-in path only.
        t = params.refund_threshold + Fraction(credit) * profile.children / params.refund_rate
        lo = _cut(t.numerator, t.denominator, False, scenario.rule)
        if 0 < lo < INCOME_CEILING:
            pins.set(lo, cum_hi - pct / 100.0, f"sweep {scenario.value} c={credit}")


def walk_pins(all_pins: dict, params_by_year, table: str, walk: dict):
    # S1 rows only: the S2 interleaving of the deduction package is not
    # reproducible from the stated step sequence, so S2 rows are informational.
    scenario = Scenario.S1
    target, steps = piecemeal_walk(table, params_by_year)
    target_idx = CATEGORY_ORDER.index(target)
    for group in GROUPS:
        pins = all_pins[(2018, group)]
        rows = walk["s1"][group]
        profile = HouseholdProfile.one_child(group_enum(group))
        for step_no, (_, params) in enumerate(steps[1:], start=2):
            cuts = category_cuts(thresholds(profile, params), scenario.rule)
            lo = min(max(cuts[target_idx - 1], 0), INCOME_CEILING)
            hi = min(cuts[target_idx], INCOME_CEILING)
            value = rows[step_no - 1] / 100.0
            lo_v, hi_v = pins.get(lo), pins.get(hi)
            src = f"walk {table} step {step_no}"
            if hi_v is not None and lo_v is None:
                pins.set(lo, hi_v - value, src)
            elif lo_v is not None and hi_v is None:
                pins.set(hi, lo_v + value, src)
            elif lo_v is not None and hi_v is not None:
                if abs((hi_v - lo_v) - value) > PIN_TOL:
                    raise SystemExit(f"inconsistent {src} {group}: {hi_v - lo_v:.5f} vs {value:.5f}")


def parity_pins(all_pins: dict, params_by_year):
    params = params_by_year[2018]
    at_parity = replace(params, actc_per_child=params.ctc_per_child)
    no_floor = replace(at_parity, refund_threshold=Fraction(0))
    for scenario in Scenario:
        for group in GROUPS:
            pins = all_pins[(2018, group)]
            profile = (HouseholdProfile.one_child(group_enum(group))
                       if scenario.fixed_one_child else children_profile(2018, group))
            for variant, pct in zip((at_parity, no_floor), PARITY_STEPS[scenario.value][group][1:]):
                lo, hi = full_relief_cuts(profile, variant, scenario.rule)
                hi = min(hi, INCOME_CEILING)
                hi_v = pins.get(hi)
                if hi_v is not None and 0 < lo < INCOME_CEILING:
                    pins.set(lo, hi_v - pct / 100.0, f"parity {scenario.value}")


def solve_bins(pins: Pins, total: int) -> list[int]:
    """Bin counts matching the pinned cumulative shares, uniform in between."""
    edges = pins.monotone()
    nbins = INCOME_CEILING // BIN_WIDTH
    counts = [0] * nbins
    prev_edge = edges[0][0]
    prev_count = 0
    for edge, cum in edges[1:]:
        seg_target = max(int(round(cum * total)) - prev_count, 0)
        lo_bin, hi_bin = prev_edge // BIN_WIDTH, edge // BIN_WIDTH
        width = hi_bin - lo_bin
        if width > 0:
            base, rem = divmod(seg_target, width)
            for j in range(lo_bin, hi_bin):
                counts[j] = base + (1 if (j - lo_bin) < rem else 0)
        prev_edge = edge
        prev_count += seg_target
    # Residual from rounding lands in the last bin.
    counts[-1] += total - sum(counts)
    if counts[-1] < 0:
        raise SystemExit(f"negative residual while solving {pins.key}")
    return counts


def children_histogram(year: int, group: str, total: int) -> dict[str, int]:
    """Histogram over 0..8+ with the exact benchmark mean."""
    mean = Fraction(str(CHILDREN_AVG[group][year - 2003]))
    target = mean * total
    assert target.denominator == 1, (year, group)
    weights = [3, 42, 35, 12, 5, 2, 0, 0, 1]  # percent-style shape, mean 1.86
    counts = [w * total // 100 for w in weights]
    counts[1] += total - sum(counts)
    weighted = sum(k * c for k, c in enumerate(counts))
    delta = int(target) - weighted
    # Shift mass between one- and two-child cells; each unit moves the sum by 1.
    counts[1] -= delta
    counts[2] += delta
    if min(counts) < 0:
        raise SystemExit(f"children histogram underflow {year} {group}")
    keys = [str(k) for k in range(8)] + ["8plus"]
    return {k: c for k, c in zip(keys, counts) if c > 0}


def main() -> None:
    DATA.mkdir(exist_ok=True)
    (DATA / "params.json").write_text(json.dumps(params_records(), indent=2) + "\n")
    (DATA / "benchmarks.json").write_text(json.dumps(benchmarks_payload(), indent=2) + "\n")
    params_by_year = load_params(DATA / "params.json")

    all_pins = {(year, group): Pins((year, group)) for year in YEARS for group in GROUPS}
    for year in YEARS:
        params = params_by_year[year]
        for group in GROUPS:
            for scenario in Scenario:
                eligibility_pins(all_pins[(year, group)], year, group, params, scenario)
    for year in (2017, 2018):
        for group in GROUPS:
            for scenario in Scenario:
                sweep_pins(all_pins[(year, group)], year, group, params_by_year[year], scenario)
    walk_pins(all_pins, params_by_year, "1a", WALK_1A)
    walk_pins(all_pins, params_by_year, "1b", WALK_1B)
    parity_pins(all_pins, params_by_year)

    pop_lines = ["year,group,bin_lower,bin_upper,count"]
    child_lines = ["year,group,children,count"]
    for year in YEARS:
        for group in GROUPS:
            total = n_for(year, group)
            counts = solve_bins(all_pins[(year, group)], total)
            for j, count in enumerate(counts):
                pop_lines.append(f"{year},{group},{j * BIN_WIDTH},{(j + 1) * BIN_WIDTH},{count}")
            for key, count in children_histogram(year, group, total).items():
                child_lines.append(f"{year},{group},{key},{count}")
    (DATA / "population.csv").write_text("\n".join(pop_lines) + "\n")
    (DATA / "children.csv").write_text("\n".join(child_lines) + "\n")
    print(f"wrote {DATA / 'params.json'}")
    print(f"wrote {DATA / 'benchmarks.json'}")
    print(f"wrote {DATA / 'population.csv'}")
    print(f"wrote {DATA / 'children.csv'}")


if __name__ == "__main__":
    main()
