"""The package namespace: every public name of every module, re-exported,
the index rule at every entry point (its only tests), the numpy-free import
path, and the README's library example."""

from __future__ import annotations

import doctest
import functools
import numbers
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import morganvoyce

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PUBLIC_NAMES = [
    "__version__",
    "fib", "binom", "ratio_to_float",
    "row_closed_form", "three_term_rows", "hereditary_rows", "reciprocal_row",
    "MomentSummary", "deriv1_closed", "deriv2_closed", "moment_summary",
    "ModeResult", "PellSolution", "smallest_mode_index", "locate_mode",
    "double_mode_sequence",
    "CltReport", "HarperModel", "LocalLimitRow", "SingularityConstants", "normal_cdf",
    "normal_pdf", "harper_model", "kolmogorov_distance",
    "local_limit_error", "local_limit_row", "dominant_pole", "singularity_constants",
    "singularity_constants_numeric",
]


def test_package_exports_the_public_names():
    # same 30 names, none twice; the order is free
    assert sorted(morganvoyce.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(PUBLIC_NAMES)) == 30
    for name in PUBLIC_NAMES:
        assert hasattr(morganvoyce, name)


# every public function that takes a row index or a count as its first
# argument: (function, lower bound, argument name)
INDEX_ENTRY_POINTS = [
    (morganvoyce.fib, 0, "n"),
    (functools.partial(morganvoyce.binom, k=3), 0, "n"),
    (morganvoyce.row_closed_form, 1, "n"),
    (morganvoyce.three_term_rows, 0, "max_n"),
    (functools.partial(morganvoyce.hereditary_rows, g=lambda k: k), 0, "max_n"),
    (morganvoyce.reciprocal_row, 1, "n"),
    (morganvoyce.deriv1_closed, 0, "n"),
    (morganvoyce.deriv2_closed, 0, "n"),
    (morganvoyce.moment_summary, 1, "n"),
    (morganvoyce.smallest_mode_index, 1, "n"),
    (morganvoyce.locate_mode, 1, "n"),
    (morganvoyce.double_mode_sequence, 1, "count"),
    (morganvoyce.harper_model, 2, "n"),
    (morganvoyce.kolmogorov_distance, 2, "n"),
    (morganvoyce.local_limit_error, 2, "n"),
    (morganvoyce.local_limit_row, 2, "n"),
]


def test_index_entry_points_reject_bool_and_normalize_numpy_ints():
    for fn, _, _ in INDEX_ENTRY_POINTS:
        with pytest.raises(TypeError):
            fn(True)
        # int64 arithmetic would overflow at n = 100, in the rows and moments
        got, want = fn(np.int64(100)), fn(100)
        assert got == want, fn
        if hasattr(want, "n"):
            assert type(got.n) is int, fn
        if isinstance(got, list):  # a row, a list of rows or a list of results
            entries = [a for item in got for a in (item if isinstance(item, list) else [item])]
            assert all(type(a) is int for a in entries if isinstance(a, numbers.Integral)), fn


def test_index_entry_points_name_themselves_below_their_bound():
    for fn, lo, arg in INDEX_ENTRY_POINTS:
        name = getattr(fn, "func", fn).__name__  # unwrap the partial
        with pytest.raises(ValueError) as exc:
            fn(lo - 1)
        assert str(exc.value) == f"{name} requires {arg} >= {lo}, got {lo - 1}"


def test_local_limit_error_steps_follow_the_index_rule():
    with pytest.raises(TypeError):
        morganvoyce.local_limit_error(10, -3.0, 3.0, True)
    assert morganvoyce.local_limit_error(10, -3.0, 3.0, np.int64(5)) == morganvoyce.local_limit_error(
        10, -3.0, 3.0, 5
    )


# numpy blocked: sys.modules["numpy"] = None makes every import of it raise
# ImportError.  harper_model, its one user, is the control that the block holds.
NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None
import morganvoyce
from morganvoyce import cli
assert sys.modules["numpy"] is None, "numpy was loaded"
for argv in (["clt", "--n", "50", "--grid=-2:2:101"], ["local-table", "--n", "10"],
             ["singularity", "--h", "1e-3"], ["triangle", "--max-n", "3"]):
    assert cli.main(argv) == 0, argv
try:
    morganvoyce.harper_model(4)
except ImportError:
    pass
else:
    raise AssertionError("numpy was not blocked")
"""


def test_import_path_and_cli_load_no_numpy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"command"') == 4  # each command printed its json document


def test_readme_library_example_runs():
    failures, attempted = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert attempted > 0
    assert failures == 0
