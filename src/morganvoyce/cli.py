"""Command-line surface: every computation as machine-readable tables.

Data goes to stdout (or --output PATH), diagnostics to stderr.  Formats:
json (object with "meta" and "rows"), csv, tsv.  Big integers and exact
rationals serialize as decimal strings so a JSON round trip is lossless;
floats use the shortest round-trip decimal.  Exit codes: 0 success, 2 usage
error (an unwritable --output or an integer beyond the int-to-str digit limit
included), 1 internal check failure (clt's Berry-Esseen bound).  Identical
invocations produce byte-identical output.  Nothing is written unless the
whole document renders, so a failed run leaves stdout empty and an existing
--output file untouched: the document's pieces are joined into one string
once, and that string is written once.

Each table's columns are the fields of the result dataclass it reports
(``MomentSummary``, ``ModeResult``, ``PellSolution``, ``CltReport``,
``LocalLimitRow``, ``SingularityConstants``), in declaration order, followed
by the float columns the command adds.  Rows are built from ``vars(result)``,
so those dataclasses must keep their instance ``__dict__`` (no
``slots=True``), and reordering their fields reorders the columns.

The parser owns the syntax (``--format`` and ``--output`` go before the
command) and one value rule, ``--max-n``/``--count`` >= 1, because
``moments`` and ``modes`` never pass ``max_n`` to the library.  Every other
value rule belongs to the library, ``--grid``'s included, and its
``ValueError`` becomes exit 2.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Sequence

from . import __version__, limits, modes, moments, triangle
from .exact import ratio_to_float

__all__ = ["main"]

# json's spelling of the constants, and of the reprs of nan and the infinities
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Each size argument's largest value whose output stays within Python's
# default int-to-str digit limit, measured per command; one more exits 2.
_SIZE_HELP = "at most {} under Python's default 4300-digit int-to-str limit; larger exits 2"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _grid(text: str) -> tuple:
    """Split LO:HI:STEPS into floats and an int; local_limit_error checks the values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be LO:HI:STEPS, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be LO:HI:STEPS, got {text!r}")


def _json_pieces(value, indent: str, out: List[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dump(..., indent=2)`` writes it, with
    ints (not bools) and Fractions as quoted decimal strings; ``indent`` is a
    newline followed by the current indentation."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_JSON_NON_FINITE.get(text, text))
    elif value is None or value is True or value is False:
        out.append(_JSON_CONSTANTS[value])
    elif isinstance(value, (int, Fraction)):
        out.append(f'"{value!s}"')
    elif isinstance(value, (dict, list, tuple)):
        inner = indent + "  "
        first = len(out)
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
        elif isinstance(value, dict):
            for key, item in value.items():
                out.append(f",{inner}{encode_basestring_ascii(key)}: ")
                _json_pieces(item, inner, out)
            out[first] = "{" + out[first][1:]
            out.append(indent + "}")
        elif all(type(v) is int for v in value):  # a coefficient row: one join
            out += ("[", inner, '"', f'",{inner}"'.join(map(str, value)), '"', indent, "]")
        else:
            for item in value:
                out.append("," + inner)
                _json_pieces(item, inner, out)
            out[first] = "[" + inner
            out.append(indent + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(rows: List[Dict], meta: Dict, fmt: str) -> str:
    """The whole document as text; the only place values become text.

    The pieces are collected in one list and joined once.  csv and tsv cells
    are never quoted: every cell is a number, a bool (``true``/``false``) or
    a fixed ASCII name, so none holds a delimiter, a quote or a newline.
    """
    if fmt == "json":
        out: List[str] = []
        _json_pieces({"meta": meta, "rows": rows}, "\n", out)
        out.append("\n")
        return "".join(out)
    delim = "," if fmt == "csv" else "\t"  # a table's rows share one key order
    lines = [delim.join(rows[0])]
    for row in rows:
        cells = [("true" if v else "false") if type(v) is bool else str(v) for v in row.values()]
        lines.append(delim.join(cells))
    lines.append("")
    return "\n".join(lines)


def _digit_limit_message() -> str:
    return (
        f"an output integer exceeds Python's {sys.get_int_max_str_digits()}-digit "
        "int-to-str limit; use a smaller --count or --max-n"
    )


def _cmd_triangle(args) -> List[Dict]:
    # A(n, k) grows with n, so the last row holds the table's largest integer:
    # it is built and checked against the digit limit before the other rows
    last = triangle.row_closed_form(args.max_n)
    try:
        str(max(last))
    except ValueError:
        raise ValueError(_digit_limit_message()) from None
    coeffs = [*map(triangle.row_closed_form, range(1, args.max_n)), last]
    if args.format == "json":
        return [{"n": n, "coeffs": row} for n, row in enumerate(coeffs, 1)]
    return [{"n": n, "k": k, "A": a} for n, row in enumerate(coeffs, 1) for k, a in enumerate(row)]


def _cmd_moments(args) -> List[Dict]:
    rows = []
    for n in range(1, args.max_n + 1):
        s = moments.moment_summary(n)
        rows.append(
            {**vars(s), "mu_float": ratio_to_float(s.mu), "sigma2_float": ratio_to_float(s.sigma2)}
        )
    return rows


def _cmd_modes(args) -> List[Dict]:
    rows = []
    for n in range(1, args.max_n + 1):
        r = modes.locate_mode(n)
        rows.append({**vars(r), "darroch_gap_float": ratio_to_float(r.darroch_gap)})
    return rows


def _cmd_pell(args) -> List[Dict]:
    return [vars(s) for s in modes.double_mode_sequence(args.count)]


def _cmd_clt(args) -> List[Dict]:
    rows = []
    for n in sorted(set(args.n)):
        # first, so a grid that breaks local_limit_error's rule fails before any D_n
        local = limits.local_limit_error(n, *args.grid)
        rows.append({**vars(limits.kolmogorov_distance(n)), "local_sup_error": local})
    return rows


def _cmd_local_table(args) -> List[Dict]:
    return [vars(limits.local_limit_row(n)) for n in sorted(set(args.n))]


def _cmd_singularity(args) -> List[Dict]:
    rows = [{"method": "closed-form", "h": "", **vars(limits.singularity_constants())}]
    for h in args.h:
        numeric = limits.singularity_constants_numeric(h)
        rows.append({"method": "central-difference", "h": repr(h), **vars(numeric)})
    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morganvoyce",
        description="Exact coefficient-triangle tables and limit-theorem verification reports.",
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "tsv"), default="json", help="output format"
    )
    parser.add_argument("--output", help="write to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", help="coefficient rows 1..max-n")
    p.add_argument("--max-n", type=_positive_int, required=True, help=_SIZE_HELP.format(10293))
    p.set_defaults(run=_cmd_triangle)

    p = sub.add_parser("moments", help="exact u, v, w, mu, sigma^2 for rows 1..max-n")
    p.add_argument("--max-n", type=_positive_int, required=True, help=_SIZE_HELP.format(5142))
    p.set_defaults(run=_cmd_moments)

    p = sub.add_parser("modes", help="mode location and mean gap for rows 1..max-n")
    p.add_argument("--max-n", type=_positive_int, required=True, help=_SIZE_HELP.format(10288))
    p.set_defaults(run=_cmd_modes)

    p = sub.add_parser("pell", help="double-mode rows from the Pell matrix recursion")
    p.add_argument("--count", type=_positive_int, required=True, help=_SIZE_HELP.format(1714))
    p.set_defaults(run=_cmd_pell)

    p = sub.add_parser("clt", help="Kolmogorov distance vs Berry-Esseen bound per n")
    p.add_argument("--n", type=int, action="append", required=True, help="repeatable")
    p.add_argument("--grid", type=_grid, default=limits.DEFAULT_GRID, help="LO:HI:STEPS")
    p.set_defaults(run=_cmd_clt)

    p = sub.add_parser("local-table", help="center ratio and scaled local-limit error per n")
    p.add_argument("--n", type=int, action="append", required=True, help="repeatable")
    p.set_defaults(run=_cmd_local_table)

    p = sub.add_parser("singularity", help="growth constants, closed form and finite differences")
    p.add_argument("--h", type=float, action="append", required=True, help="repeatable step size")
    p.set_defaults(run=_cmd_singularity)

    return parser


def _diagnose(command: str, message: str) -> None:
    """Write one diagnostic line to stderr, or drop it when stderr is closed.

    A closed stderr must not change the exit code: when ``sys.stderr`` is
    None or writing to it raises OSError, the line is dropped.
    """
    if sys.stderr is None:
        return
    try:
        print(f"morganvoyce {command}: {message}", file=sys.stderr)
    except OSError:
        pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    meta = {
        "version": __version__,
        "command": args.command,
        "parameters": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("run", "command", "output")
        },
    }
    try:
        rows = args.run(args)
    except ValueError as exc:  # bad argument values: usage error
        _diagnose(args.command, str(exc))
        return 2
    except ArithmeticError as exc:  # a violated internal invariant
        _diagnose(args.command, f"internal check failed: {exc}")
        return 1

    try:
        text = _render(rows, meta, args.format)
    except ValueError:  # str() of an integer beyond the interpreter's digit limit
        _diagnose(args.command, _digit_limit_message())
        return 2

    try:
        if args.output is None:
            if sys.stdout is None:  # the process started with stdout closed
                raise OSError("stdout is closed")
            sys.stdout.write(text)
        else:
            with open(args.output, "w", newline="") as out:
                out.write(text)
    except OSError as exc:  # the output path cannot be opened or written
        _diagnose(args.command, f"cannot write output: {exc}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
