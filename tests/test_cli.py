"""Command-line surface: formats, round trips, exit codes, determinism."""

from __future__ import annotations

import csv
import errno
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from morganvoyce import (
    cli,
    double_mode_sequence,
    limits,
    locate_mode,
    moment_summary,
    row_closed_form,
    triangle,
)

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_json_single_row(capsys):
    code, out, _ = run(capsys, "triangle", "--max-n", "1")
    assert code == 0
    assert json.loads(out)["rows"] == [{"n": "1", "coeffs": ["0", "1"]}]


def test_triangle_json_round_trip_is_lossless(capsys):
    code, out, _ = run(capsys, "triangle", "--max-n", "40")
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        n = int(row["n"])
        assert [int(c) for c in row["coeffs"]] == row_closed_form(n)


def test_modes_csv(capsys):
    # both bool spellings: row 5 has one mode, row 72 is the first double mode
    code, out, _ = run(capsys, "--format", "csv", "modes", "--max-n", "72")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,smallest_mode,is_double,darroch_gap,darroch_gap_float"
    assert lines[5].split(",")[:3] == ["5", "3", "false"]
    assert lines[72].split(",")[:3] == ["72", "32", "true"]


def test_modes_gap_float_is_correctly_rounded(capsys):
    # at n = 449 and n = 3207 a double-rounding conversion lands one ulp off
    code, out, _ = run(capsys, "--format", "csv", "modes", "--max-n", "3207")
    assert code == 0
    rows = {int(r[0]): r for r in (line.split(",") for line in out.splitlines()[1:])}
    assert rows[449][4] == "0.19890437948111475"
    assert rows[3207][4] == "0.38599923163488875"
    for n in (449, 3207):
        gap = Fraction(rows[n][3])
        assert float(rows[n][4]) == gap.numerator / gap.denominator


def _broken_kolmogorov_distance(n):
    raise ArithmeticError(f"Kolmogorov distance 1.0 exceeds Berry-Esseen bound 0.5 at n = {n}")


def test_internal_check_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(limits, "kolmogorov_distance", _broken_kolmogorov_distance)
    code, out, err = run(capsys, "clt", "--n", "3")
    assert code == 1
    assert out == ""
    assert "internal check failed" in err


def test_clt_report_values(capsys):
    code, out, _ = run(capsys, "clt", "--n", "2")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["kolmogorov"] - 0.427) < 1e-3
    assert abs(row["be_bound"] - 1.692) < 1e-3
    assert row["kolmogorov"] <= row["be_bound"]


def test_clt_rejects_degenerate_n(capsys):
    # the library functions raise; the CLI maps their ValueError to exit 2
    for command in ("clt", "local-table"):
        code, out, err = run(capsys, command, "--n", "1")
        assert code == 2
        assert out == ""
        assert "n >= 2" in err


def test_clt_builds_each_row_once(capsys, monkeypatch):
    calls = []
    row_closed_form = limits.row_closed_form

    def counted(n):
        calls.append(n)
        return row_closed_form(n)

    # F(2n) comes from the moment summary, so the limit layer never calls fib
    fib_calls = []
    fib = limits.fib

    def counted_fib(n):
        fib_calls.append(n)
        return fib(n)

    monkeypatch.setattr(limits, "row_closed_form", counted)
    monkeypatch.setattr(limits, "fib", counted_fib)
    code, _, _ = run(capsys, "clt", "--n", "300")
    assert code == 0
    assert calls == [300]
    assert fib_calls == []


def test_clt_accepts_grid(capsys):
    # leading-dash grids need the = form, as usual with argparse
    code, out, _ = run(capsys, "clt", "--n", "30", "--grid=-2:2:101")
    assert code == 0
    assert json.loads(out)["rows"][0]["local_sup_error"] > 0
    # a finite grid on which mu + x sigma overflows reads A* = 0 there
    code, out, err = run(capsys, "clt", "--n", "50", "--grid=1e307:1.7e308:10")
    assert (code, err) == (0, "")
    assert json.loads(out)["rows"][0]["local_sup_error"] == 0.0


@pytest.mark.parametrize(
    "argv, header",
    [
        (["moments", "--max-n", "2"], "n,u,v,w,mu,sigma2,mu_float,sigma2_float"),
        (["pell", "--count", "1"], "k,m,n,j"),
        (["clt", "--n", "5"], "n,kolmogorov,be_bound,sigma,local_sup_error"),
        (["singularity", "--h", "1e-3"], "method,h,r0,r1,r2,a,b2"),
        (["local-table", "--n", "10"], "n,ratio,scaled_error"),
    ],
)
def test_csv_headers(capsys, argv, header):
    code, out, _ = run(capsys, "--format", "csv", *argv)
    assert code == 0
    assert out.splitlines()[0] == header


def test_local_table_two_significant_digits(capsys):
    code, out, _ = run(capsys, "local-table", "--n", "10")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["ratio"] - 0.25) < 5e-3
    assert abs(row["scaled_error"] - 0.47) < 5e-3


def test_singularity_rows(capsys):
    code, out, _ = run(capsys, "singularity", "--h", "1e-3", "--h", "1e-4")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["method"] == "closed-form"
    assert len(rows) == 3
    for row in rows:
        assert abs(row["a"] - 0.4472135955) < 1e-6
        assert abs(row["b2"] - 0.1788854382) < 1e-6


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["triangle", "--max-n", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["clt"])  # empty n list
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        # --format and --output go before the command, and nowhere else
        cli.main(["modes", "--max-n", "3", "--format", "csv"])
    assert exc.value.code == 2
    capsys.readouterr()


def _refuse(n):
    raise AssertionError("a row or moment summary was built before the grid was checked")


@pytest.mark.parametrize("grid", ["-inf:3:10", "-3:inf:10", "-1e308:1e308:10", "3:-3:10", "-3:3:1"])
def test_clt_non_finite_grid_exits_2_with_one_line(capsys, monkeypatch, grid):
    # local_limit_error owns the grid rule; clt calls it before anything else
    monkeypatch.setattr(limits, "row_closed_form", _refuse)
    monkeypatch.setattr(limits, "moment_summary", _refuse)
    code, out, err = run(capsys, "clt", "--n", "50", f"--grid={grid}")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "local_limit_error requires" in err


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "--format", "csv", "moments", "--max-n", "12")
    _, second, _ = run(capsys, "--format", "csv", "moments", "--max-n", "12")
    assert first == second
    # rows come out in ascending n whatever the argument order (meta echoes
    # the invocation, so compare the rows)
    _, third, _ = run(capsys, "clt", "--n", "7", "--n", "3")
    _, fourth, _ = run(capsys, "clt", "--n", "3", "--n", "7")
    assert json.loads(third)["rows"] == json.loads(fourth)["rows"]
    assert [int(r["n"]) for r in json.loads(third)["rows"]] == [3, 7]


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "rows.json"
    code, out, err = run(capsys, "--output", str(target), "triangle", "--max-n", "2")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "cannot write output" in err


def test_closed_stdout_exits_2(capsys, monkeypatch):
    # a process started with stdout closed (`>&-`) has sys.stdout None
    monkeypatch.setattr(sys, "stdout", None)
    code = cli.main(["triangle", "--max-n", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "cannot write output" in err


class _ClosedStream:
    """A text stream whose descriptor is closed: every write raises EBADF."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


# `2>&-` leaves either no stderr object (None) or one whose writes raise EBADF;
# either way the diagnostic is dropped and the exit code is unchanged
@pytest.mark.parametrize("stderr", [None, _ClosedStream()], ids=["none", "ebadf"])
@pytest.mark.parametrize(
    "argv, expected",
    [(["local-table", "--n", "1"], 2), (["clt", "--n", "3"], 1)],
    ids=["usage", "internal-check"],
)
def test_closed_stderr_keeps_exit_code(capsys, monkeypatch, stderr, argv, expected):
    monkeypatch.setattr(limits, "kolmogorov_distance", _broken_kolmogorov_distance)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert cli.main(argv) == expected
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("stderr", [None, _ClosedStream()], ids=["none", "ebadf"])
def test_closed_stdout_and_stderr_exit_2(capsys, monkeypatch, stderr):
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert cli.main(["triangle", "--max-n", "2"]) == 2


@pytest.fixture
def low_digit_limit():
    # the smallest allowed limit: `pell --count 300` then passes it in its
    # last rows, as `pell --count 1800` does under the default 4300 digits
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(default)


def test_integer_beyond_digit_limit_exits_2(capsys, low_digit_limit):
    # nothing is written, not even the rows rendered before the long one
    for fmt in ("json", "csv", "tsv"):
        code, out, err = run(capsys, "--format", fmt, "pell", "--count", "300")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "640-digit" in err and "--count" in err


def test_failed_run_leaves_output_file_alone(tmp_path, capsys, low_digit_limit):
    target = tmp_path / "keep.json"
    target.write_bytes(b"precious\n")
    code, out, _ = run(capsys, "--output", str(target), "pell", "--count", "300")
    assert code == 2
    assert out == ""
    assert target.read_bytes() == b"precious\n"


def test_triangle_checks_its_size_before_building_rows(tmp_path, capsys, monkeypatch, low_digit_limit):
    # a third row means the table is being built: fail at once instead of
    # allocating rows up to 1536 that cannot be printed
    calls = []
    kernel = triangle.row_closed_form

    def counted(n):
        calls.append(n)
        assert len(calls) < 3, "rows were built before the digit-limit check"
        return kernel(n)

    monkeypatch.setattr(triangle, "row_closed_form", counted)
    target = tmp_path / "keep.json"
    target.write_bytes(b"precious\n")
    for argv in (["--format", "json"], ["--format", "csv"], ["--output", str(target)]):
        calls.clear()
        code, out, err = run(capsys, *argv, "triangle", "--max-n", "1536")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "640-digit" in err and "--max-n" in err
    assert target.read_bytes() == b"precious\n"


def _printed_ints(result):
    """The integers a command prints for one library result: every int field,
    and each Fraction's numerator and denominator."""
    out = []
    for value in vars(result).values():
        if isinstance(value, Fraction):
            out += [abs(value.numerator), value.denominator]
        elif type(value) is int:
            out.append(value)
    return out


# the largest integer each size-limited command prints for size N: its last
# row or result holds it, since the values grow with N
LARGEST_PRINTED = {
    "triangle": lambda n: max(row_closed_form(n)),
    "moments": lambda n: max(_printed_ints(moment_summary(n))),
    "modes": lambda n: max(_printed_ints(locate_mode(n))),
    "pell": lambda count: max(_printed_ints(double_mode_sequence(count)[-1])),
}


def test_help_limits_are_the_largest_sizes_that_print():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    for command, largest in LARGEST_PRINTED.items():
        (size,) = [a for a in sub.choices[command]._actions if a.dest in ("max_n", "count")]
        match = re.match(r"at most (\d+) under Python's default (\d+)-digit", size.help)
        limit, digits = int(match[1]), int(match[2])
        # compared with 10**digits, so no integer is ever converted to text
        assert largest(limit) < 10**digits <= largest(limit + 1), command


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.json"
    code, out, _ = run(capsys, "--output", str(target), "triangle", "--max-n", "2")
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["rows"][1]["coeffs"] == ["0", "2", "1"]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("triangle_max_n_8.json", ["triangle", "--max-n", "8"]),
        ("triangle_max_n_8.tsv", ["--format", "tsv", "triangle", "--max-n", "8"]),
        ("moments_max_n_20.json", ["moments", "--max-n", "20"]),
        ("modes_max_n_100.json", ["modes", "--max-n", "100"]),
        ("pell_count_6.json", ["pell", "--count", "6"]),
        ("modes_max_n_100.csv", ["--format", "csv", "modes", "--max-n", "100"]),
    ],
)
def test_exact_commands_match_golden_output(capsys, name, argv):
    # the README's exact-only commands; the float-reporting ones (clt,
    # local-table, singularity) go through libm and may differ in the last
    # digit across platforms, so their values are tested with tolerances
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / name).read_bytes()


def stringify(value):
    """The document json.dump sees: ints (not bools) and Fractions as strings."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: stringify(v) for k, v in value.items()}
    return value


def stdlib_render(rows, meta, fmt):
    if fmt == "json":
        return json.dumps(stringify({"meta": meta, "rows": rows}), indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter="," if fmt == "csv" else "\t", lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(
        [("true" if v else "false") if type(v) is bool else v for v in row.values()] for row in rows
    )
    return buf.getvalue()


COMMAND_ARGV = {
    "triangle": ["triangle", "--max-n", "12"],
    "moments": ["moments", "--max-n", "30"],
    "modes": ["modes", "--max-n", "80"],
    "pell": ["pell", "--count", "4"],
    "clt": ["clt", "--n", "2", "--n", "40", "--grid=-2:2:51"],
    "local-table": ["local-table", "--n", "2", "--n", "10"],
    "singularity": ["singularity", "--h", "1e-3", "--h", "1e-5"],
}

# json documents no command produces yet
SYNTHETIC_ROWS = {
    "empty-and-nested": [{"empty": [], "nothing": {}, "nested": (1, (2.5, "x"), ()), "none": None}],
    "bools-and-fractions": [{"flags": [True, False, 3], "ratio": Fraction(-7, 3), "big": [10**40, -1]}],
    "floats": [{"floats": [-0.0, 1e-06, 1e300, float("nan"), float("inf"), -float("inf")]}],
    "strings": [{'q"uote': 'a"b\\c\x01d\u00e9\u2603\n', "k\u00e9y": ["\t", ""]}],
}


@pytest.mark.parametrize(
    "source, fmt",
    [(command, fmt) for command in sorted(COMMAND_ARGV) for fmt in ("json", "csv", "tsv")]
    + [(name, "json") for name in SYNTHETIC_ROWS],
)
def test_render_matches_stdlib_writers(source, fmt):
    if source in COMMAND_ARGV:
        args = cli._build_parser().parse_args(["--format", fmt, *COMMAND_ARGV[source]])
        rows = args.run(args)
    else:
        rows = SYNTHETIC_ROWS[source]
    meta = {"command": source, "parameters": {"grid": (-2.0, 2.0, 51), "n": [2, 40], "h": []}}
    # csv.writer quotes any cell that holds a delimiter, a quote or a newline,
    # so equality also shows that no cell of any command needs quoting
    assert cli._render(rows, meta, fmt) == stdlib_render(rows, meta, fmt)
