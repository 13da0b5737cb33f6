import contextlib
import io
import json
import sys
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from border_eig import Config, system_from_nodes, total_degree_set
from border_eig import cli
from border_eig.cli import _config_from_args, build_parser, main
from conftest import serialize_system


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def idempotent_file(tmp_path, idempotent_system):
    path = tmp_path / "idempotent.json"
    path.write_bytes(serialize_system(idempotent_system))
    return str(path)


@pytest.fixture
def nilpotent_file(tmp_path):
    path = tmp_path / "nilpotent.json"
    path.write_text(
        json.dumps(
            {
                "index_set": {"type": "total_degree", "n": 1, "m": 1},
                "relations": [{"alpha": [2], "coeffs": [0, 0]}],
            }
        )
    )
    return str(path)


@pytest.fixture
def x2_is_1_file(tmp_path):
    path = tmp_path / "pm1.json"
    path.write_text(
        json.dumps(
            {
                "index_set": {"type": "total_degree", "n": 1, "m": 1},
                "relations": [{"alpha": [2], "coeffs": [1, 0]}],
            }
        )
    )
    return str(path)


class TestCheck:
    def test_maximal_exits_zero(self, capsys, idempotent_file):
        code, out, _ = run_cli(capsys, "check", idempotent_file)
        assert code == 0
        assert json.loads(out)["verdict"]["maximal"] is True

    def test_nilpotent_exits_one(self, capsys, nilpotent_file):
        code, out, _ = run_cli(capsys, "check", nilpotent_file)
        assert code == 1
        obj = json.loads(out)
        assert obj["verdict"]["all_semisimple"] is False

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_cluster_schema(self, capsys, idempotent_file, nilpotent_file, command):
        # each coordinate's clusters: exactly an eigenvalue and its algebraic
        # count, the counts summing to #I, maximal or not
        for path, size in ((idempotent_file, 3), (nilpotent_file, 2)):
            _, out, _ = run_cli(capsys, command, path)
            obj = json.loads(out)
            reports = (obj if command == "check" else obj["diagnostics"])["semisimplicity"]
            for rep in reports:
                assert set(rep) == {"clusters", "worst_gap"}
                assert all(set(c) == {"eigenvalue", "algebraic"} for c in rep["clusters"])
                assert sum(c["algebraic"] for c in rep["clusters"]) == size

    def test_truncated_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"index_set": {')
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 2
        assert json.loads(err)["error"] == "SchemaError"

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/x.json")
        assert code == 2


    def test_triple_root_exits_one(self, capsys, tmp_path):
        # (x - 1)^3 (x + 1) (x - 2): its triple root splits by about 1e-5
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(TRIPLE_ROOT))
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 1
        obj = json.loads(out)
        assert obj["verdict"]["maximal"] is False
        assert obj["separation"] < 1.0
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert json.loads(out)["distinct_count"] != 5

    def test_separation_printed(self, capsys, idempotent_file):
        _, out, _ = run_cli(capsys, "check", idempotent_file)
        assert json.loads(out)["separation"] > 1.0
        _, out, _ = run_cli(capsys, "solve", idempotent_file)
        assert json.loads(out)["diagnostics"]["separation"] > 1.0

    def test_reads_stdin(self, capsys, monkeypatch, idempotent_system):
        data = serialize_system(idempotent_system)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, _ = run_cli(capsys, "check", "-")
        assert code == 0
        assert json.loads(out)["verdict"]["maximal"] is True


TRIPLE_ROOT = {
    "index_set": {"type": "total_degree", "n": 1, "m": 4},
    "relations": [{"alpha": [5], "coeffs": [-2, 5, -2, -4, 4]}],
}

TWO_ROOTS = {
    "index_set": {"type": "total_degree", "n": 1, "m": 1},
    "relations": [{"alpha": [2], "coeffs": [1, 0]}],
}


@pytest.mark.parametrize(
    "command, system, points",
    [
        ("check", {**TWO_ROOTS, "index_set": {"type": "total_degree", "n": 1, "m": -1}}, None),
        ("check", {**TWO_ROOTS, "index_set": {"type": "total_degree", "n": 0, "m": 1}}, None),
        ("check", {**TWO_ROOTS, "index_set": {"type": "explicit", "n": 2, "indices": [[0, "a"]]}}, None),
        ("check", {**TWO_ROOTS, "index_set": {"type": "explicit", "n": 1, "indices": []}}, None),
        ("check", {**TWO_ROOTS, "relations": [{"alpha": 5, "coeffs": [1, 0]}]}, None),
        ("check", {**TWO_ROOTS, "relations": [{"alpha": [2.9], "coeffs": [1, 0]}]}, None),
        ("check", {**TWO_ROOTS, "relations": [{"alpha": [True], "coeffs": [1, 0]}]}, None),
        ("check", {**TWO_ROOTS, "relations": [{"alpha": [2], "coeffs": [1e400, 0]}]}, None),
        ("check", {**TWO_ROOTS, "relations": [{"alpha": [2], "coeffs": [[0, 10**400], 0]}]}, None),
        ("from-points", None, {"n": "x", "points": [[-1], [1]]}),
    ],
    ids=["m-negative", "n-zero", "index-not-int", "indices-empty", "alpha-scalar",
         "alpha-float", "alpha-bool", "coeff-overflow", "coeff-big-int", "points-n-string"],
)
def test_malformed_input_exits_two(capsys, tmp_path, command, system, points):
    if command == "check":
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(system))  # 1e400 is written as Infinity
        argv = ["check", str(path)]
    else:
        path = tmp_path / "pts.json"
        path.write_text(json.dumps(points))
        argv = ["from-points", "--index-set", '{"type": "total_degree", "n": 1, "m": 1}',
                "--points", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "SchemaError"


class TestSolve:
    def test_pm_one_roots(self, capsys, x2_is_1_file):
        code, out, _ = run_cli(capsys, "solve", x2_is_1_file)
        assert code == 0
        obj = json.loads(out)
        roots = sorted(r["z"][0][0] for r in obj["roots"])
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-10)
        assert obj["distinct_count"] == 2

    def test_nilpotent_exits_one(self, capsys, nilpotent_file):
        code, out, _ = run_cli(capsys, "solve", nilpotent_file)
        assert code == 1
        assert json.loads(out)["verdict"]["maximal"] is False

    def test_determinism(self, capsys, idempotent_file):
        _, out1, _ = run_cli(capsys, "solve", idempotent_file, "--seed", "42")
        _, out2, _ = run_cli(capsys, "solve", idempotent_file, "--seed", "42")
        assert out1 == out2

    def test_seeds_agree_on_poised_system(self, capsys, idempotent_file):
        _, out1, _ = run_cli(capsys, "solve", idempotent_file, "--seed", "7")
        _, out2, _ = run_cli(capsys, "solve", idempotent_file, "--seed", "42")
        r1 = sorted(tuple(map(tuple, r["z"])) for r in json.loads(out1)["roots"])
        r2 = sorted(tuple(map(tuple, r["z"])) for r in json.loads(out2)["roots"])
        assert np.allclose(np.array(r1), np.array(r2), atol=1e-6)

    def test_text_format(self, capsys, x2_is_1_file):
        code, out, _ = run_cli(capsys, "solve", x2_is_1_file, "--format", "text")
        assert code == 0
        assert "distinct roots: 2" in out


@pytest.mark.parametrize("command", ["check", "solve"])
def test_eigensolver_failure_exits_one(capsys, monkeypatch, idempotent_file, command):
    # a numerical failure, not an input error
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    code, out, err = run_cli(capsys, command, idempotent_file)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "EigenConvergenceError"


@pytest.mark.parametrize("command", ["check", "solve"])
def test_overflowing_combination_exits_one(capsys, recwarn, tmp_path, command):
    # every coefficient is finite, but M = sum c_i A_i overflows at seed 1;
    # stderr holds the one error line and no warning
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "index_set": {"type": "explicit", "n": 2, "indices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
        "relations": [{"alpha": alpha, "coeffs": [1.7e308] * 4}
                      for alpha in ([2, 0], [0, 2], [2, 1], [1, 2])],
    }))
    code, out, err = run_cli(capsys, command, str(path), "--seed", "1")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "EigenConvergenceError", "message": "non-finite matrix entry"}
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestFromPoints:
    def test_corner_nodes(self, capsys, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text('{"n": 2, "points": [[0, 0], [1, 0], [0, 1]]}')
        code, out, _ = run_cli(
            capsys,
            "from-points",
            "--index-set",
            '{"type": "total_degree", "n": 2, "m": 1}',
            "--points",
            str(pts),
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["poisedness"]["poised"] is True
        rows = {tuple(r["alpha"]): r["coeffs"] for r in obj["relations"]}
        assert np.allclose(rows[(2, 0)], [[0, 0], [1, 0], [0, 0]], atol=1e-12)

    def test_collinear_exits_one(self, capsys, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text('{"n": 2, "points": [[0, 0], [1, 1], [2, 2]]}')
        code, out, _ = run_cli(
            capsys,
            "from-points",
            "--index-set",
            '{"type": "total_degree", "n": 2, "m": 1}',
            "--points",
            str(pts),
        )
        assert code == 1
        assert json.loads(out)["error"] == "UnisolvenceError"

    def test_repeated_node_exits_one(self, capsys, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text('{"n": 2, "points": [[0, 0], [0, 0], [1, 0]]}')
        code, out, _ = run_cli(
            capsys,
            "from-points",
            "--index-set",
            '{"type": "total_degree", "n": 2, "m": 1}',
            "--points",
            str(pts),
        )
        assert code == 1

    # two equal nodes with the poisedness cut off: sigma_min reads exactly 0
    # for the first set, 2.6e-16 for the second, whose LU meets a zero pivot
    @pytest.mark.parametrize("points", ["[[0, 0], [0, 0], [1, 1]]", "[[1, 2], [1, 2], [3, 4]]"])
    def test_singular_nodes_past_the_cut_exit_one(self, capsys, recwarn, tmp_path, points):
        pts = tmp_path / "pts.json"
        pts.write_text(f'{{"n": 2, "points": {points}}}')
        code, out, err = run_cli(capsys, "from-points", "--index-set",
                                 '{"type": "total_degree", "n": 2, "m": 1}', "--points", str(pts),
                                 "--tol-poised", "-1")
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "UnisolvenceError"
        assert obj["poisedness"]["poised"] is False
        assert err == ""
        assert not recwarn.list

    def test_pipes_into_solve(self, capsys, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text('{"n": 1, "points": [[-1], [1]]}')
        code, out, _ = run_cli(
            capsys,
            "from-points",
            "--index-set",
            '{"type": "total_degree", "n": 1, "m": 1}',
            "--points",
            str(pts),
        )
        assert code == 0
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(out)
        code, out, _ = run_cli(capsys, "solve", str(sysfile))
        assert code == 0
        roots = sorted(r["z"][0][0] for r in json.loads(out)["roots"])
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-10)

    def test_reordered_basis_exits_two(self, capsys, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text('{"n": 2, "points": [[0, 0], [1, 0], [0, 1]]}')
        _, out, _ = run_cli(capsys, "from-points", "--index-set",
                            '{"type": "total_degree", "n": 2, "m": 1}', "--points", str(pts))
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(out)
        assert json.loads(out)["basis"] == [[0, 0], [1, 0], [0, 1]]
        assert run_cli(capsys, "solve", str(sysfile))[0] == 0
        # basis [1, y, x] with every coefficient row permuted to match
        obj = json.loads(out)
        obj["basis"] = [[0, 0], [0, 1], [1, 0]]
        for rel in obj["relations"]:
            rel["coeffs"] = [rel["coeffs"][k] for k in (0, 2, 1)]
        sysfile.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "solve", str(sysfile))
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "SchemaError" and error["message"].startswith("basis: ")


@pytest.mark.parametrize("index_set, error, message", [
    # n * #I * (#I + n) = 3000 * 3001 is over the budget: refused before the
    # border's 3000 indices of length 3000 are built
    ({"type": "explicit", "n": 3000, "indices": [[0] * 3000]}, "SizeLimitError", "n=3000, #I=1: "),
    # admitted, and built without recursing n deep; no relations is an input error
    ({"type": "total_degree", "n": 1500, "m": 0}, "SchemaError",
     "relations: missing relations for 1500 of 1500 border indices, first [[1, 0, 0, "),
    # #I >= max(n, m) + 1 refuses it before binomial(2 * 10^6, 10^6) is formed
    ({"type": "total_degree", "n": 10**6, "m": 10**6}, "SizeLimitError", "n=1000000, #I>=1000001: "),
], ids=["wide-refused", "deep-admitted", "huge-total-degree-refused"])
def test_admission(capsys, tmp_path, index_set, error, message):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"index_set": index_set, "relations": []}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    # a message names at most three indices: about 4500 bytes each at n = 1500
    assert len(err) < 16_000
    obj = json.loads(err)
    assert obj["error"] == error and obj["message"].startswith(message)


@pytest.mark.parametrize("command, calls", [("from-points", 1), ("verify", 1), ("solve", 2)])
def test_monomial_eval_calls(capsys, tmp_path, monkeypatch, command, calls):
    # from-points and verify evaluate the monomial stack once; solve once at
    # its candidate roots and once at the stepped ones, Jacobians included
    import border_eig
    from border_eig import system

    pts = tmp_path / "pts.json"
    pts.write_text('{"n": 2, "points": [[0.3, 0.1], [1.2, -0.4], [-0.7, 0.9], [0.5, 1.5]]}')
    index_set = '{"type": "explicit", "n": 2, "indices": [[0, 0], [1, 0], [0, 1], [1, 1]]}'
    _, out, _ = run_cli(capsys, "from-points", "--index-set", index_set, "--points", str(pts))
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(out)
    argv = {"from-points": ["--index-set", index_set, "--points", str(pts)],
            "verify": [str(sys_file), str(pts)], "solve": [str(sys_file)]}[command]
    counted, original = [], system.monomial_eval

    def counting(*args, **kwargs):
        counted.append(1)
        return original(*args, **kwargs)

    bound = [mod for mod in (border_eig, *vars(border_eig).values())
             if getattr(mod, "monomial_eval", None) is original]
    assert len(bound) >= 3  # the package, system and interp
    for mod in bound:
        monkeypatch.setattr(mod, "monomial_eval", counting)
    code, out, _ = run_cli(capsys, command, *argv)
    assert code == 0
    assert len(counted) == calls


class TestVerify:
    def test_solve_output_round_trip(self, capsys, idempotent_file, tmp_path):
        _, out, _ = run_cli(capsys, "solve", idempotent_file)
        roots = tmp_path / "roots.json"
        roots.write_text(out)
        code, out, _ = run_cli(capsys, "verify", idempotent_file, str(roots))
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_perturbed_root_fails(self, capsys, idempotent_file, tmp_path):
        _, out, _ = run_cli(capsys, "solve", idempotent_file)
        obj = json.loads(out)
        obj["roots"][0]["z"][0][0] += 1e-2
        roots = tmp_path / "roots.json"
        roots.write_text(json.dumps(obj))
        code, out, _ = run_cli(capsys, "verify", idempotent_file, str(roots))
        assert code == 1
        rows = json.loads(out)["roots"]
        assert sum(1 for r in rows if r["residual"] > 1e-6) == 1

    def test_empty_roots_vacuous(self, capsys, idempotent_file, tmp_path):
        roots = tmp_path / "roots.json"
        roots.write_text('{"roots": []}')
        code, out, _ = run_cli(capsys, "verify", idempotent_file, str(roots))
        assert code == 0
        assert json.loads(out)["roots"] == []

    @pytest.mark.parametrize(
        "roots, path",
        [
            ({"roots": 5}, "roots"),
            ({"roots": None}, "roots"),
            ({"roots": {"z": [1]}}, "roots"),
            ({"roots": [{"z": [1, 2]}]}, "roots[0].z"),
            ({"roots": [{"z": ["a"]}]}, "roots[0].z[0]"),
        ],
        ids=["number", "null", "object", "too-many-coordinates", "string-coordinate"],
    )
    def test_malformed_roots_exit_two(self, capsys, x2_is_1_file, tmp_path, roots, path):
        file = tmp_path / "roots.json"
        file.write_text(json.dumps(roots))
        code, out, err = run_cli(capsys, "verify", x2_is_1_file, str(file))
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "SchemaError"
        assert error["message"].startswith(path + ": ")


class TestMatrices:
    def test_dump_shape(self, capsys, idempotent_file):
        code, out, _ = run_cli(capsys, "matrices", idempotent_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["basis"] == [[0, 0], [1, 0], [0, 1]]
        A1 = np.array(obj["A"][0])[:, :, 0]
        assert np.allclose(A1, [[0, 1, 0], [0, 1, 0], [0, 0, 0]])

    def test_output_streamed_within_its_size(self, tmp_path):
        # unit nodes at n = 2, m = 30 (#I 496): about 25.6 MB of output,
        # written a block of rows at a time, so the traced peak of the whole
        # command stays below the size of what it writes
        I = total_degree_set(2, 30)
        rng = np.random.default_rng(5)
        nodes = np.exp(2j * np.pi * rng.uniform(size=(len(I), 2)))
        path = tmp_path / "unit.json"
        path.write_bytes(serialize_system(system_from_nodes(I, nodes)))

        class Count:
            size = 0

            def write(self, text):
                self.size += len(text)

        out = Count()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = main(["matrices", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out.size > 25 * 10**6
        assert peak <= out.size


class TestRealSystem:
    """A real system is solved in real arithmetic but written as before."""

    @pytest.fixture
    def real_file(self, tmp_path):
        # (x^5 - 1)(x - 1): one double real root, two conjugate pairs
        path = tmp_path / "real.json"
        path.write_text(json.dumps({
            "index_set": {"type": "total_degree", "n": 1, "m": 5},
            "relations": [{"alpha": [6], "coeffs": [-1, 1, 0, 0, 0, 1]}],
        }))
        return str(path)

    def test_matrices_writes_pairs(self, capsys, real_file):
        code, out, _ = run_cli(capsys, "matrices", real_file)
        assert code == 0
        A = json.loads(out)["A"]
        entries = [e for Ai in A for row in Ai for e in row]
        assert len(entries) == 36 and all(isinstance(e, list) and len(e) == 2 for e in entries)

    def test_solve_writes_pairs(self, capsys, real_file):
        code, out, _ = run_cli(capsys, "solve", real_file)
        assert code == 1  # the double root: not maximal
        roots = json.loads(out)["roots"]
        assert len(roots) == 5
        assert all(len(r["z"]) == 1 and len(r["z"][0]) == 2 for r in roots)
        # imaginary parts exactly 0 exactly where real, conjugates otherwise
        assert [r["real"] for r in roots] == [r["z"][0][1] == 0 for r in roots]
        assert sum(r["real"] for r in roots) == 1
        pairs = sorted(tuple(r["z"][0]) for r in roots if not r["real"])
        assert sorted((re, -im) for re, im in pairs) == pairs


class TestConfig:
    def test_env_var_override(self, capsys, idempotent_file, monkeypatch):
        # a negative commutation tolerance rejects every family
        monkeypatch.setenv("BORDER_EIG_TOL_COMMUTE", "-1")
        code, out, _ = run_cli(capsys, "check", idempotent_file)
        assert code == 1
        assert json.loads(out)["verdict"]["commuting"] is False

    def test_flag_beats_env(self, capsys, idempotent_file, monkeypatch):
        monkeypatch.setenv("BORDER_EIG_TOL_COMMUTE", "-1")
        code, out, _ = run_cli(capsys, "check", idempotent_file, "--tol-commute", "1e-8")
        assert code == 0
        assert json.loads(out)["verdict"]["commuting"] is True

    @pytest.mark.parametrize("var, value", [
        ("BORDER_EIG_SEED", "abc"),
        ("BORDER_EIG_TOL_COMMUTE", "x"),
        ("BORDER_EIG_SEED", "1.5"),
    ])
    def test_malformed_env_var_exits_two(self, capsys, idempotent_file, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        code, out, err = run_cli(capsys, "check", idempotent_file)
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "SchemaError" and var in error["message"]

    @pytest.mark.parametrize("flags, env, source", [
        (["--tol-commute", "nan"], {}, "--tol-commute"),
        ([], {"BORDER_EIG_TOL_COMMUTE": "nan"}, "BORDER_EIG_TOL_COMMUTE"),
        (["--tol-poised", "nan"], {}, "--tol-poised"),
        (["--tol-poised", "inf"], {}, "--tol-poised"),
        (["--seed", "-1"], {}, "--seed"),
        ([], {"BORDER_EIG_SEED": "-5"}, "BORDER_EIG_SEED"),
        (["--seed", "1.5"], {}, "--seed"),
        # a variable that names no Config field: a removed knob, a misspelt one
        ([], {"BORDER_EIG_TOL_DEDUP": "nan"}, "BORDER_EIG_TOL_DEDUP"),
        ([], {"BORDER_EIG_TOL_COMUTE": "-1"}, "BORDER_EIG_TOL_COMUTE"),
    ], ids=["flag-nan", "env-nan", "from-points-nan", "from-points-inf", "flag-negative-int",
            "env-negative-int", "flag-float-for-int", "env-removed", "env-misspelt"])
    def test_bad_knob_exits_two(self, capsys, tmp_path, x2_is_1_file, monkeypatch, flags, env, source):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        if "--tol-poised" in flags:
            pts = tmp_path / "pts.json"
            pts.write_text('{"n": 1, "points": [[-1], [1]]}')
            argv = ["from-points", "--index-set", '{"type": "total_degree", "n": 1, "m": 1}',
                    "--points", str(pts)]
        else:
            argv = ["check", x2_is_1_file]
        code, out, err = run_cli(capsys, *argv, *flags)
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "SchemaError" and source in error["message"]

    def test_config_holds_only_caller_decisions(self):
        assert [f.name for f in fields(Config)] == ["tol_commute", "tol_accept", "tol_poised", "seed"]

    @pytest.mark.parametrize("command", ["check", "solve", "from-points", "verify", "matrices"])
    def test_every_field_has_a_flag_and_a_variable(self, monkeypatch, command):
        positional = {"from-points": ["--index-set", "{}", "--points", "p.json"],
                      "verify": ["s.json", "r.json"]}.get(command, ["s.json"])
        parser = build_parser()
        for f in fields(Config):
            text = "0.5" if isinstance(f.default, float) else "7"
            flag, var = "--" + f.name.replace("_", "-"), "BORDER_EIG_" + f.name.upper()
            cfg = _config_from_args(parser.parse_args([command, *positional, flag, text]))
            assert getattr(cfg, f.name) == type(f.default)(text) != f.default
            monkeypatch.setenv(var, text)
            cfg = _config_from_args(parser.parse_args([command, *positional]))
            assert getattr(cfg, f.name) == type(f.default)(text)
            monkeypatch.delenv(var)

    def test_refine_flag_is_gone(self, capsys, x2_is_1_file):
        # so is --size-cap: admission is a fixed rule (indexsets.ADMISSION_BUDGET);
        # and the clustering, dedup and eigenpair tolerances are constants of spectral
        for flag in ("--refine", "--size-cap", "--tol-cluster", "--tol-dedup", "--tol-eig"):
            with pytest.raises(SystemExit) as exc:
                main(["solve", x2_is_1_file, flag, "1"])
            assert exc.value.code == 2


class TestParserReuse:
    """main parses every call with one parser per process, and no call leaves
    state in it for the next."""

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()

    def test_text_then_default_prints_json(self, capsys, x2_is_1_file):
        code, out, _ = run_cli(capsys, "solve", x2_is_1_file, "--format", "text")
        assert code == 0 and out.startswith("strategy: ")
        code, out, _ = run_cli(capsys, "solve", x2_is_1_file)
        assert code == 0 and json.loads(out)["distinct_count"] == 2

    def test_unknown_flag_then_valid_call(self, capsys, x2_is_1_file):
        with pytest.raises(SystemExit) as exc:
            main(["check", x2_is_1_file, "--no-such-flag"])
        assert exc.value.code == 2
        code, out, _ = run_cli(capsys, "check", x2_is_1_file)
        assert code == 0 and json.loads(out)["verdict"]["maximal"] is True

    def test_flag_value_not_kept(self, capsys, x2_is_1_file):
        # a negative tolerance makes every family non-commuting
        code, _, _ = run_cli(capsys, "check", x2_is_1_file, "--tol-commute", "-1")
        assert code == 1
        code, _, _ = run_cli(capsys, "check", x2_is_1_file)
        assert code == 0


@pytest.mark.parametrize("argv", [
    ["check", "{missing}"],
    ["solve", "{missing}"],
    ["matrices", "{missing}"],
    ["verify", "{system}", "{missing}"],
    ["from-points", "--index-set", '{{"type": "total_degree", "n": 1, "m": 1}}', "--points", "{missing}"],
])
def test_unreadable_input_exits_two(capsys, tmp_path, x2_is_1_file, argv):
    missing = str(tmp_path / "absent.json")
    argv = [a.format(missing=missing, system=x2_is_1_file) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_failed_write_is_not_an_input_error(x2_is_1_file, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["solve", x2_is_1_file])


def test_undecodable_input_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "SchemaError"
