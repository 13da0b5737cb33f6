"""Command-line front end: check, solve, from-points, verify, matrices.

Exit codes: 0 success, 1 criterion or accuracy failure (including an
eigensolver that fails to converge), 2 input error.
Each Config field f is set by the flag --f (dashes for underscores), else
by the environment variable BORDER_EIG_F, else keeps its default; a float
must be finite and an int non-negative, or the command exits 2.  Output is
deterministic for identical inputs and config.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys as _sys
from dataclasses import fields

import numpy as np

from .errors import BorderEigError, EigenConvergenceError, SchemaError, UnisolvenceError
from .indexsets import index_set_from_json
from .interp import _point_rows, nodes_from_json, parse_nodes, system_from_nodes
from .matrices import build_family
from .spectral import Config, criterion, solve
from .system import Records, RowGather, _load_json, dump, parse_system, residual, system_to_json

_ENV_PREFIX = "BORDER_EIG_"


def _read_input(path):
    if path == "-":
        return _sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _flag(name):
    return "--" + name.replace("_", "-")


def _cast(raw, kind, source):
    """A Config value from flag or variable text.  `kind` is the field's type
    and `source` the flag or variable an error names; a float must be finite
    and an int non-negative."""
    try:
        value = kind(raw)
    except ValueError:
        value = None
    if value is None or (kind is float and not math.isfinite(value)) or (kind is int and value < 0):
        what = "a finite float" if kind is float else "a non-negative int"
        raise SchemaError(f"expected {what}, got {raw!r}", source)
    return value


def _config_from_args(args) -> Config:
    """Config from the flags, then the BORDER_EIG_* variables (module docstring).

    A BORDER_EIG_* variable that names no field, such as a removed or
    misspelt knob, is an input error.
    """
    known = [_ENV_PREFIX + f.name.upper() for f in fields(Config)]
    for var in sorted(os.environ):
        if var.startswith(_ENV_PREFIX) and var not in known:
            raise SchemaError(f"unknown variable; the variables are {', '.join(known)}", var)
    values = {}
    for f in fields(Config):
        raw, source = getattr(args, f.name), _flag(f.name)
        if raw is None:
            source = _ENV_PREFIX + f.name.upper()
            raw = os.environ.get(source)
        if raw is not None:
            values[f.name] = _cast(raw, type(f.default), source)
    return Config(**values)


def _emit(obj, fmt, lines):
    """JSON object on stdout, written a chunk at a time, or the prepared text
    lines in text mode."""
    if fmt == "json":
        dump(obj, _sys.stdout)
        print()
    else:
        for line in lines:
            print(line)


def _fail(exc, code=2):
    """Report an error as JSON on stderr; input errors exit 2 by default."""
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=_sys.stderr)
    return code


# Each command reads its inputs and returns (exit code, JSON object, text
# lines, an iterable that only text mode consumes); main writes them, or
# the error that reading raised.


def cmd_check(args, cfg):
    sys_ = parse_system(_read_input(args.system))
    verdict = criterion(build_family(sys_), cfg)
    report = {
        "verdict": verdict.to_json(),
        "separation": verdict.separation,
        "commutation": verdict.commutation.to_json(),
        "semisimplicity": [rep.to_json() for rep in verdict.semisimplicity],
    }
    lines = [
        f"commuting: {verdict.commuting} (max defect {verdict.commutation.max_defect:.3e})",
        f"all_semisimple: {verdict.all_semisimple} (separation {verdict.separation})",
        f"maximal: {verdict.maximal}",
    ]
    return (0 if verdict.maximal else 1), report, lines


def cmd_solve(args, cfg):
    sys_ = parse_system(_read_input(args.system))
    sol = solve(sys_, cfg)
    lines = itertools.chain([
        f"strategy: {sol.strategy}",
        f"maximal: {sol.verdict.maximal}",
        f"distinct roots: {sol.distinct_count}",
    ], (
        "  "
        + " ".join(f"{c.real:+.12g}{c.imag:+.12g}j" for c in z)
        + f"   residual {r:.3e}"
        for z, r in zip(sol.roots, sol.residuals)
    ))
    ok = sol.verdict.maximal and not any(sol.flagged)
    return (0 if ok else 1), sol.to_json(), lines


def cmd_from_points(args, cfg):
    spec = args.index_set
    text = spec.encode() if spec.lstrip().startswith("{") else _read_input(spec)
    I = index_set_from_json(_load_json(text))
    nodes = parse_nodes(_read_input(args.points), I.dimension)
    try:
        sys_ = system_from_nodes(I, nodes, cfg.tol_poised)
    except UnisolvenceError as exc:
        obj = {"error": "UnisolvenceError", "message": str(exc)}
        if exc.report is not None:
            obj["poisedness"] = exc.report.to_json()
        return 1, obj, [f"not poised: {exc}"]
    except ValueError as exc:
        return _fail(exc), None, None
    out = system_to_json(sys_)
    report = sys_.poisedness
    out["poisedness"] = report.to_json()
    return 0, out, [f"poised (condition {report.condition:.3e}); system has {len(sys_.J)} relations"]


def cmd_verify(args, cfg):
    sys_ = parse_system(_read_input(args.system))
    roots = _roots_from_json(_load_json(_read_input(args.roots)), sys_.dimension)
    res = residual(sys_, roots)
    ok = bool(np.all(res <= cfg.tol_accept))
    out = {"tol_accept": cfg.tol_accept, "all_pass": ok,
           "roots": Records({"z": roots, "residual": res})}
    lines = itertools.chain((
        " ".join(f"{c.real:+.12g}{c.imag:+.12g}j" for c in z) + f"   residual {r:.3e}"
        for z, r in zip(roots.tolist(), res.tolist())
    ), [f"all_pass: {ok}"])
    return (0 if ok else 1), out, lines


def _roots_from_json(obj, n) -> np.ndarray:
    """The (p, n) roots of solve output ({"roots": [{"z": ...}]}) or of a points file."""
    if isinstance(obj, dict) and "roots" in obj:
        if not isinstance(obj["roots"], list):
            raise SchemaError("must be an array", "roots")
        for k, entry in enumerate(obj["roots"]):
            if not isinstance(entry, dict) or "z" not in entry:
                raise SchemaError("expected an object with 'z'", f"roots[{k}]")
        return _point_rows([entry["z"] for entry in obj["roots"]], n, "roots[{}].z")
    if isinstance(obj, dict) and "points" in obj:
        return nodes_from_json(obj, n)
    raise SchemaError("expected a 'roots' or 'points' object")


def cmd_matrices(args, cfg):
    sys_ = parse_system(_read_input(args.system))
    fam = build_family(sys_, complex)  # [re, im] pairs, as the coefficients were read
    out = {
        "basis": sys_.I.exponents,
        "A": RowGather(fam.normal_forms, fam.shifts),  # A_i = normal_forms[shifts[i]]
        "unit_row_count": fam.unit_row_count,
        "coeff_row_count": fam.coeff_row_count,
    }
    return 0, out, [f"{len(fam)} matrices of size {fam.size}x{fam.size}"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="border-eig",
        description="Solve and analyze border-form algebraic systems via multiplication-matrix eigenvalues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        for f in fields(Config):  # read as text; _config_from_args casts
            p.add_argument(_flag(f.name), dest=f.name)
        p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("check", help="decide the commuting + semisimple criterion")
    p.add_argument("system", help="system JSON file, or - for stdin")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="recover all roots")
    p.add_argument("system", help="system JSON file, or - for stdin")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("from-points", help="build the system vanishing on a node set")
    p.add_argument("--index-set", required=True, help="index-set JSON file or inline JSON")
    p.add_argument("--points", required=True, help="points JSON file, or - for stdin")
    common(p)
    p.set_defaults(func=cmd_from_points)

    p = sub.add_parser("verify", help="plug claimed roots back into the system")
    p.add_argument("system", help="system JSON file")
    p.add_argument("roots", help="solve output or points JSON file")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("matrices", help="dump the multiplication matrices")
    p.add_argument("system", help="system JSON file")
    common(p)
    p.set_defaults(func=cmd_matrices)

    return parser


# main parses with one parser per process; parsing leaves no state in it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, out, lines = args.func(args, _config_from_args(args))
    except EigenConvergenceError as exc:
        code, out = _fail(exc, 1), None  # a numerical failure, not bad input
    except (OSError, BorderEigError) as exc:  # an input that cannot be read or parsed
        code, out = _fail(exc), None
    if out is not None:  # written outside the try: a failed write is not an input error
        _emit(out, args.format, lines)
    if argv is None:
        _sys.exit(code)
    return code
