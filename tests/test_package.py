"""The package namespace: every public name of every module, re-exported."""

from __future__ import annotations

import functools

import numpy as np
import pytest

import morganvoyce


PUBLIC_NAMES = [
    "__version__",
    "fib", "binom", "ratio_to_float",
    "row_closed_form", "three_term_rows", "hereditary_rows", "reciprocal_row",
    "MomentSummary", "row_sum", "deriv1_closed", "deriv2_closed", "moment_summary", "kepler_gap",
    "ModeResult", "PellSolution", "smallest_mode_index", "locate_mode",
    "double_mode_sequence", "pell_all_solutions",
    "CltReport", "HarperModel", "LocalLimitRow", "SingularityConstants", "normal_cdf",
    "normal_pdf", "harper_model", "third_moment_bound_check", "kolmogorov_distance",
    "local_limit_error", "local_limit_row", "dominant_pole", "singularity_constants",
    "singularity_constants_numeric",
]


def test_package_exports_the_public_names():
    # same 34 names, none twice; the order is free
    assert sorted(morganvoyce.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(PUBLIC_NAMES)) == 34
    for name in PUBLIC_NAMES:
        assert hasattr(morganvoyce, name)


# every public function that takes a row index or a count as its first argument
INDEX_ENTRY_POINTS = [
    morganvoyce.fib,
    morganvoyce.row_closed_form,
    morganvoyce.three_term_rows,
    functools.partial(morganvoyce.hereditary_rows, g=lambda k: k),
    morganvoyce.reciprocal_row,
    morganvoyce.row_sum,
    morganvoyce.deriv1_closed,
    morganvoyce.deriv2_closed,
    morganvoyce.moment_summary,
    morganvoyce.kepler_gap,
    morganvoyce.smallest_mode_index,
    morganvoyce.locate_mode,
    morganvoyce.double_mode_sequence,
    morganvoyce.pell_all_solutions,
    morganvoyce.harper_model,
    morganvoyce.third_moment_bound_check,
    morganvoyce.kolmogorov_distance,
    morganvoyce.local_limit_error,
    morganvoyce.local_limit_row,
]


def test_index_entry_points_reject_bool_and_normalize_numpy_ints():
    for fn in INDEX_ENTRY_POINTS:
        with pytest.raises(TypeError):
            fn(True)
        got, want = fn(np.int64(10)), fn(10)
        if isinstance(want, morganvoyce.HarperModel):  # eq=False: compare the pmf
            assert np.array_equal(got.pmf, want.pmf)
        else:
            assert got == want, fn
        if hasattr(want, "n"):
            assert type(got.n) is int, fn
