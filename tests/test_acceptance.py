"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import subprocess
import sys
import time
from itertools import product

import numpy as np
import pytest

from border_eig import (
    Config,
    border,
    build_family,
    parse_system,
    solve,
    system_from_nodes,
    total_degree_set,
    validate_lower_set,
)
from border_eig.system import BorderSystem

from conftest import matching_error, random_separated_nodes, serialize_system


def report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_forward_round_trip():
    """200 random node sets round-trip through synthesis and solving."""
    rng = np.random.default_rng(2024)
    combos = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
    start = time.time()
    worst = 0.0
    for trial in range(200):
        n, m = combos[trial % len(combos)]
        I = total_degree_set(n, m)
        assert len(I) <= 35
        nodes = random_separated_nodes(rng, n, len(I), sep=1e-2)
        sol = solve(system_from_nodes(I, nodes))
        assert sol.verdict.maximal, f"trial {trial} (n={n}, m={m}): not maximal"
        assert sol.distinct_count == len(I), f"trial {trial}: {sol.distinct_count} != {len(I)}"
        worst = max(worst, matching_error(sol.roots, nodes))
    elapsed = time.time() - start
    report(
        1,
        worst <= 1e-6 and elapsed <= 30,
        f"200 round trips, worst root error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_degenerate_corpus():
    """Defective, non-commuting, and idempotent systems get the right verdicts."""
    I1 = total_degree_set(1, 1)
    nilpotent = BorderSystem(I1, border(I1), np.zeros((1, 2)))
    sol = solve(nilpotent)
    ok = (not sol.verdict.maximal) and sol.distinct_count == 1

    I2 = total_degree_set(2, 1)
    coeffs = np.zeros((3, 3), dtype=complex)
    coeffs[0, 0] = 1.0
    coeffs[2, 0] = 1.0
    noncommuting = BorderSystem(I2, border(I2), coeffs)
    sol = solve(noncommuting)
    ok = ok and not sol.verdict.maximal

    nodes = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    sol = solve(system_from_nodes(I2, nodes))
    ok = ok and sol.verdict.maximal and matching_error(sol.roots, nodes) <= 1e-10
    report(2, ok, "x^2=0 defective, x^2=1/xy=0/y^2=1 non-commuting, idempotent maximal")


def test_criterion_3_univariate_degeneration():
    """Companion structure and roots for x^{m+1} with cosine-spaced real roots."""
    ok = True
    detail = []
    for m in range(1, 7):
        roots = np.array([np.cos(k * np.pi / m) for k in range(m + 1)]) if m > 1 else np.array([1.0, -1.0])
        assert len(set(np.round(roots, 12))) == m + 1
        monic = np.poly(roots)  # leading-first coefficients of prod (x - r)
        a = -monic[1:][::-1]  # x^{m+1} = sum_j a_j x^j
        I = total_degree_set(1, m)
        sys_ = BorderSystem(I, border(I), a.reshape(1, -1).astype(complex))
        fam = build_family(sys_)
        A = fam.normal_forms[fam.shifts[0]]
        structural = np.array_equal(A[:-1], np.eye(m + 1, dtype=complex)[1:]) and np.array_equal(
            A[-1], a.astype(complex)
        )
        sol = solve(sys_)
        err = matching_error(sol.roots, [np.array([r]) for r in roots])
        ok = ok and structural and err <= 1e-8
        detail.append(f"m={m}: {err:.1e}")
    report(3, ok, "companion structure exact, root errors " + ", ".join(detail))


def test_criterion_4_seed_consistency():
    """Two seeds of the generic combination give the same root multiset."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(40):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        I = total_degree_set(n, m)
        sys_ = system_from_nodes(I, random_separated_nodes(rng, n, len(I), sep=0.05))
        a = solve(sys_, Config(seed=42))
        b = solve(sys_, Config(seed=7))
        assert a.distinct_count == b.distinct_count == len(I), f"trial {trial}"
        worst = max(worst, matching_error(a.roots, b.roots))
    report(4, worst <= 1e-6, f"40 systems, seeds 42 and 7, worst multiset discrepancy {worst:.2e}")


def test_criterion_5_unit_square_lower_set():
    """The {0,1}^2 grid over the unit-square lower set round-trips."""
    I = validate_lower_set(list(product((0, 1), repeat=2)), 2)
    J = border(I)
    ok = set(J.members) == {(2, 0), (2, 1), (1, 2), (0, 2)}
    nodes = [np.array(p, dtype=float) for p in product((0.0, 1.0), repeat=2)]
    sys_ = system_from_nodes(I, nodes)
    pos = {b: k for k, b in enumerate(I.members)}

    def unit_row(mono):
        out = np.zeros(len(I))
        out[pos[mono]] = 1.0
        return out

    for alpha, mono in [((2, 0), (1, 0)), ((0, 2), (0, 1)), ((2, 1), (1, 1)), ((1, 2), (1, 1))]:
        ok = ok and np.allclose(sys_.coeffs[sys_.J.position[alpha]], unit_row(mono), atol=1e-10)
    sol = solve(sys_)
    ok = ok and sol.verdict.maximal and matching_error(sol.roots, nodes) <= 1e-6
    report(5, ok, "border and relations match x^2=x, y^2=y, x^2y=xy, xy^2=xy")


def test_criterion_6_structural_invariants():
    """Row structure and coefficient-row counts on 100 random systems."""
    import math

    rng = np.random.default_rng(7)
    ok = True
    for trial in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        I = total_degree_set(n, m)
        sys_ = system_from_nodes(I, random_separated_nodes(rng, n, len(I), sep=0.05))
        fam = build_family(sys_)
        coeff_rows = {tuple(np.round(row, 12)) for row in sys_.coeffs}
        for A in (fam.normal_forms[index] for index in fam.shifts):
            for row in A:
                nz = np.nonzero(row)[0]
                is_unit = len(nz) == 1 and row[nz[0]] == 1.0
                if not (is_unit or tuple(np.round(row, 12)) in coeff_rows):
                    ok = False
        k = math.comb(n + m - 1, n - 1)
        if any(c != k for c in fam.coeff_row_count):
            ok = False
    report(6, ok, "100 systems: unit/coefficient rows only, coeff_row_count = #J_m")


def test_criterion_7_poisedness_negatives(tmp_path):
    """Collinear and repeated nodes are rejected, exit code 1 from the CLI."""
    spec = '{"type": "total_degree", "n": 2, "m": 1}'
    ok = True
    for pts in (
        '{"n": 2, "points": [[0, 0], [1, 1], [2, 2]]}',
        '{"n": 2, "points": [[0, 0], [0, 0], [1, 0]]}',
    ):
        f = tmp_path / "pts.json"
        f.write_text(pts)
        proc = _run_cli("from-points", "--index-set", spec, "--points", str(f))
        obj = json.loads(proc.stdout)
        ok = ok and proc.returncode == 1 and obj.get("error") == "UnisolvenceError"
    report(7, ok, "collinear triple and repeated node both rejected with exit 1")


def test_criterion_8_determinism(tmp_path, idempotent_system):
    """Identical inputs and seed give byte-identical solver stdout."""
    f = tmp_path / "sys.json"
    f.write_bytes(serialize_system(idempotent_system))
    a = _run_cli("solve", str(f), "--seed", "42")
    b = _run_cli("solve", str(f), "--seed", "42")
    ok = a.stdout == b.stdout and a.returncode == b.returncode == 0
    report(8, ok, "two cmd_solve runs produced byte-identical output")


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-c", "import sys; from border_eig.cli import main; main()"] + list(args),
        capture_output=True,
        text=True,
    )
