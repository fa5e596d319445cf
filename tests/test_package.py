"""The package namespace: every public name of every module, re-exported."""

from __future__ import annotations

import morganvoyce


PUBLIC_NAMES = [
    "__version__",
    "ExactInt", "ExactRatio", "fib", "binom", "fib_identity_check", "ratio_to_float",
    "row_closed_form", "row_three_term", "three_term_rows", "row_hereditary",
    "hereditary_rows", "reciprocal_row",
    "MomentSummary", "row_sum", "deriv1_closed", "deriv2_closed", "moment_summary", "kepler_gap",
    "ModeResult", "PellSolution", "smallest_mode_index", "locate_mode",
    "double_mode_sequence", "pell_all_solutions",
    "CltReport", "HarperModel", "LocalLimitRow", "SingularityConstants", "normal_cdf",
    "normal_pdf", "harper_model", "third_moment_bound_check", "kolmogorov_distance",
    "local_limit_error", "local_limit_row", "dominant_pole", "singularity_constants",
    "singularity_constants_numeric",
]


def test_package_exports_the_public_names():
    # same 39 names, none twice; the order is free
    assert sorted(morganvoyce.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(PUBLIC_NAMES)) == 39
    for name in PUBLIC_NAMES:
        assert hasattr(morganvoyce, name)
