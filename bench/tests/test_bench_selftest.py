"""Self-tests of the benchmark's classification and tracing.

Run with `python3 -m pytest bench/tests` from the repository root.
"""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import border_eig  # noqa: E402
from border_eig import cli  # noqa: E402

import inputs  # noqa: E402
from classify import classify  # noqa: E402
from tracer import LAYERS, Tracer, per_layer_metrics  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture
def warmup(tmp_path):
    workload = inputs.warmup_workload()
    return workload, inputs.write_inputs(workload, tmp_path)


def solve_op(workload, paths):
    """Run the warm-up chain's from-points, and return its solve op with the solve stdout."""
    fp, solve = workload.ops[0], workload.ops[1]
    code, out = run_cli(workload.resolve(fp.argv, paths))
    assert code == 0
    Path(paths[fp.produces]).write_text(out)
    code, out = run_cli(workload.resolve(solve.argv, paths))
    assert code == 0
    return solve, out


def test_solve_output_classified_ok(warmup):
    op, out = solve_op(*warmup)
    assert classify(op, 0, out, {}).status == "ok"


def test_perturbed_roots_classified_wrong(warmup):
    op, out = solve_op(*warmup)
    obj = json.loads(out)
    obj["roots"][0]["z"][0][0] += 1e-3
    result = classify(op, 0, json.dumps(obj), {})
    assert result.status == "wrong"
    assert "matching error" in result.detail


def test_verify_of_perturbed_roots(warmup):
    """verify must fail on roots moved off the system; claiming they pass is wrong."""
    workload, paths = warmup
    solve, out = solve_op(workload, paths)
    verify = workload.ops[2]
    obj = json.loads(out)
    obj["roots"][0]["z"][0][0] += 1e-3
    Path(paths[solve.produces]).write_text(json.dumps(obj))
    ctx = {"system": json.loads(Path(paths[workload.ops[0].produces]).read_text())}
    classify(solve, 1, json.dumps(obj), ctx)
    code, stdout = run_cli(workload.resolve(verify.argv, paths))
    assert code == 1
    assert classify(verify, code, stdout, ctx).status == "ok"
    claimed = json.loads(stdout)
    claimed["all_pass"] = True
    assert classify(verify, 0, json.dumps(claimed), ctx).status == "wrong"


def double_root_check(tmp_path):
    k = 10
    path = tmp_path / "double.json"
    path.write_text(json.dumps(inputs.system_json(1, k, inputs.double_root_coefficients(k))))
    op = inputs.Op("check double root", "check", ["check", str(path)], k + 1,
                   {"maximal": False, "n": 1, "m": k})
    return op, path


def test_double_root_rejected_is_ok(tmp_path):
    op, path = double_root_check(tmp_path)
    code, out = run_cli(["check", str(path)])
    assert code == 1
    assert classify(op, code, out, {}).status == "ok"


def test_check_exit_zero_on_double_root_classified_wrong(tmp_path):
    op, path = double_root_check(tmp_path)
    _, out = run_cli(["check", str(path)])
    claimed = json.loads(out)
    claimed["verdict"]["maximal"] = True
    result = classify(op, 0, json.dumps(claimed), {})
    assert result.status == "wrong"


def test_false_negative_is_failed_not_wrong():
    op = inputs.Op("check maximal", "check", ["check", "x"], 6, {"maximal": True})
    assert classify(op, 1, "{}", {}).status == "failed"
    assert classify(op, RuntimeError("boom"), "", {}).status == "failed"


def bindings():
    mods = [border_eig] + [getattr(border_eig, layer) for layer in LAYERS]
    return {
        (mod.__name__, name): obj
        for mod in mods
        for name, obj in vars(mod).items()
        if isinstance(obj, types.FunctionType)
    }


def test_traced_run_restores_module_functions(warmup):
    workload, paths = warmup
    before = bindings()
    tracer = Tracer(border_eig)
    with tracer:
        assert bindings()[("border_eig.spectral", "criterion")] is not before[
            ("border_eig.spectral", "criterion")
        ]
        for op in workload.ops:
            code, out = run_cli(workload.resolve(op.argv, paths))
            assert code == 0, op.label
            if op.produces:
                Path(paths[op.produces]).write_text(out)
    assert bindings() == before
    assert all(bindings()[key] is fn for key, fn in before.items())

    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "spectral.solve", "spectral.criterion", "interp.system_from_nodes"} <= names
    # spectral.solve reaches criterion through its module globals
    parents = {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "spectral.criterion"}
    assert "spectral.solve" in parents
    metrics = per_layer_metrics(tracer, 1)
    assert metrics["spectral.eigen.calls"] > 0
    assert metrics["system.monomial_eval.calls"] > 0


def test_tracer_restores_after_exception():
    before = bindings()
    with pytest.raises(RuntimeError):
        with Tracer(border_eig):
            border_eig.spectral.eigen(np.eye(2))
            raise RuntimeError("interrupted traced pass")
    assert all(bindings()[key] is fn for key, fn in before.items())
