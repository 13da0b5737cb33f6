"""Command-line front end: check, solve, from-points, verify, matrices.

Exit codes: 0 success, 1 criterion or accuracy failure (including an
eigensolver that fails to converge), 2 input error.
Config precedence: command-line flags, then BORDER_EIG_* environment
variables, then built-in defaults.  Output is deterministic for identical
inputs and config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys

import numpy as np

from .errors import BorderEigError, EigenConvergenceError, SchemaError, UnisolvenceError
from .indexsets import index_set_from_json
from .interp import parse_nodes, system_from_nodes
from .matrices import build_family
from .spectral import Config, criterion, solve
from .system import parse_system, residual, system_to_json

_ENV_PREFIX = "BORDER_EIG_"

_TOL_FIELDS = [
    "tol_commute",
    "tol_cluster",
    "tol_dedup",
    "tol_accept",
    "tol_poised",
    "tol_eig",
]


def _read_input(path):
    if path == "-":
        return _sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _env_overrides():
    out = {}
    casts = [(name, float) for name in _TOL_FIELDS] + [("seed", int), ("refine_iters", int), ("size_cap", int)]
    for name, cast in casts:
        var = _ENV_PREFIX + name.upper()
        raw = os.environ.get(var)
        if raw is not None:
            try:
                out[name] = cast(raw)
            except ValueError:
                raise SchemaError(f"expected {cast.__name__}, got {raw!r}", var) from None
    return out


def _config_from_args(args) -> Config:
    cfg = Config().with_overrides(**_env_overrides())
    flags = {name: getattr(args, name, None) for name in _TOL_FIELDS}
    flags["seed"] = getattr(args, "seed", None)
    flags["refine_iters"] = getattr(args, "refine", None)
    flags["size_cap"] = getattr(args, "size_cap", None)
    return cfg.with_overrides(**flags)


def _emit(obj, fmt, lines=None):
    """JSON object on stdout, or the prepared text lines in text mode."""
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        for line in lines or []:
            print(line)


def _fail(exc, code=2):
    """Report an error as JSON on stderr; input errors exit 2 by default."""
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=_sys.stderr)
    return code


def cmd_check(args) -> int:
    cfg = _config_from_args(args)
    try:
        sys_ = parse_system(_read_input(args.system), cfg.size_cap)
    except (OSError, BorderEigError) as exc:
        return _fail(exc)
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
    _emit(report, args.format, lines)
    return 0 if verdict.maximal else 1


def cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    try:
        sys_ = parse_system(_read_input(args.system), cfg.size_cap)
    except (OSError, BorderEigError) as exc:
        return _fail(exc)
    sol = solve(sys_, cfg)
    out = sol.to_json()
    lines = [
        f"strategy: {sol.strategy}",
        f"maximal: {sol.verdict.maximal}",
        f"distinct roots: {sol.distinct_count}",
    ] + [
        "  "
        + " ".join(f"{c.real:+.12g}{c.imag:+.12g}j" for c in z)
        + f"   residual {r:.3e}"
        for z, r in zip(sol.roots, sol.residuals)
    ]
    _emit(out, args.format, lines)
    ok = sol.verdict.maximal and not any(sol.flagged)
    return 0 if ok else 1


def cmd_from_points(args) -> int:
    cfg = _config_from_args(args)
    try:
        spec = args.index_set
        raw = spec.encode() if spec.lstrip().startswith("{") else _read_input(spec)
        I = index_set_from_json(json.loads(raw), cfg.size_cap)
        nodes = parse_nodes(_read_input(args.points), I.dimension)
    except json.JSONDecodeError as exc:
        return _fail(SchemaError(f"invalid JSON: {exc}"))
    except (OSError, BorderEigError) as exc:
        return _fail(exc)
    try:
        sys_ = system_from_nodes(I, nodes, cfg.tol_poised)
    except UnisolvenceError as exc:
        obj = {"error": "UnisolvenceError", "message": str(exc)}
        if exc.report is not None:
            obj["poisedness"] = exc.report.to_json()
        _emit(obj, args.format, [f"not poised: {exc}"])
        return 1
    except ValueError as exc:
        return _fail(exc)
    out = system_to_json(sys_)
    report = sys_.poisedness
    out["poisedness"] = report.to_json()
    _emit(out, args.format, [f"poised (condition {report.condition:.3e}); system has {len(sys_.J)} relations"])
    return 0


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    try:
        sys_ = parse_system(_read_input(args.system), cfg.size_cap)
        obj = json.loads(_read_input(args.roots))
        roots = _roots_from_json(obj, sys_.dimension)
    except json.JSONDecodeError as exc:
        return _fail(SchemaError(f"invalid JSON: {exc}"))
    except (OSError, BorderEigError) as exc:
        return _fail(exc)
    res = residual(sys_, np.array(roots).reshape(len(roots), sys_.dimension)).tolist()
    rows = [{"z": [[c.real, c.imag] for c in z], "residual": r} for z, r in zip(roots, res)]
    ok = all(row["residual"] <= cfg.tol_accept for row in rows)
    out = {"tol_accept": cfg.tol_accept, "all_pass": ok, "roots": rows}
    lines = [
        " ".join(f"{c.real:+.12g}{c.imag:+.12g}j" for c in z)
        + f"   residual {row['residual']:.3e}"
        for z, row in zip(roots, rows)
    ] + [f"all_pass: {ok}"]
    _emit(out, args.format, lines)
    return 0 if ok else 1


def _roots_from_json(obj, n):
    """Accept solve output ({"roots": [{"z": ...}]}) or a points file."""
    from .interp import nodes_from_json
    from .system import _as_complex

    if isinstance(obj, dict) and "roots" in obj:
        roots = []
        for k, entry in enumerate(obj["roots"]):
            path = f"roots[{k}]"
            if not isinstance(entry, dict) or "z" not in entry:
                raise SchemaError("expected an object with 'z'", path)
            z = entry["z"]
            if not isinstance(z, list) or len(z) != n:
                raise SchemaError(f"expected {n} coordinates", f"{path}.z")
            roots.append(
                np.array([_as_complex(c, f"{path}.z[{j}]") for j, c in enumerate(z)])
            )
        return roots
    if isinstance(obj, dict) and "points" in obj:
        return nodes_from_json(obj, n)
    raise SchemaError("expected a 'roots' or 'points' object")


def cmd_matrices(args) -> int:
    cfg = _config_from_args(args)
    try:
        sys_ = parse_system(_read_input(args.system), cfg.size_cap)
    except (OSError, BorderEigError) as exc:
        return _fail(exc)
    fam = build_family(sys_)
    out = {
        "basis": [list(b) for b in sys_.I.members],
        "A": [
            [[[c.real, c.imag] for c in row] for row in A]
            for A in fam.matrices
        ],
        "unit_row_count": fam.unit_row_count,
        "coeff_row_count": fam.coeff_row_count,
    }
    lines = [f"{len(fam)} matrices of size {fam.size}x{fam.size}"]
    _emit(out, args.format, lines)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="border-eig",
        description="Solve and analyze border-form algebraic systems via multiplication-matrix eigenvalues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        for name in _TOL_FIELDS:
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--refine", type=int, default=None, metavar="K")
        p.add_argument("--size-cap", dest="size_cap", type=int, default=None)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except EigenConvergenceError as exc:
        code = _fail(exc, 1)  # a numerical failure, not bad input
    except BorderEigError as exc:
        code = _fail(exc)
    if argv is None:
        _sys.exit(code)
    return code
