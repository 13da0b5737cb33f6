"""Benchmark of the border-eig command line, driven in process.

Usage (from the repository root):

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload is a fixed list of `border_eig.cli.main(argv)` calls over
JSON files generated from --seed (see inputs.py).  The list is repeated
until --seconds is used up (at least four passes); each operation's time
is its median over the passes, scaled to a reference machine speed (see
Speed).  Every operation of the first pass is classified against its
ground truth as ok, failed or wrong (see classify.py), and "attempted" and
"failed" count these distinct operations; every later pass and one extra
repeat must reproduce the first pass's stdout byte for byte.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
passes with passes traced per layer (see tracer.py) and reports the
per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs every
workload both ways in child processes and prints one summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

TAIL_PASSES = 3  # passes after the first whose op samples op_s.tail pools
MIN_PASSES = 1 + TAIL_PASSES
MIN_TRACED_PASSES = 2  # with --trace 1: untraced and traced passes each
# setup_s is the median over this many fresh processes, each timed from its
# start to its exit: interpreter start, imports, input generation, warm-up.
# A single import is too noisy to report on its own.
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples required above the reported tail percentile

COMMANDS = ("from-points", "solve", "check", "verify", "matrices")
# root_digits.min: the command whose answers are compared with the planted
# roots on each workload.  Only unit-modulus cases count: Gaussian cases
# swing by several digits from seed to seed, which would hide any change.
DIGITS_FROM = {"roundtrip": "solve", "verdict": "check", "synth-io": "from-points"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "largest_op_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ok_frac": "frac",
    "root_digits.min": "digits",
    "peak_rss_mb": "MB",
}
# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "cli.self_s": ("s", "wall_s on synth-io"),
    "cli.out_bytes": ("bytes", "wall_s on synth-io"),
    "indexsets.s": ("s", "wall_s (from-points) on synth-io"),
    "system.parse.s": ("s", "wall_s (matrices) on synth-io"),
    "system.serialize.s": ("s", "wall_s (from-points) on synth-io"),
    "system.residual.s": ("s", "wall_s (solve) on roundtrip; wall_s (verify) on synth-io"),
    "system.residual.calls": ("count", "wall_s (solve) on roundtrip; wall_s (verify) on synth-io"),
    "system.monomial_eval.calls": ("count", "wall_s on roundtrip and synth-io"),
    "interp.poisedness.calls": ("count", "wall_s (from-points) on synth-io"),
    "interp.vandermonde.calls": ("count", "wall_s (from-points) on synth-io"),
    "interp.poisedness.s": ("s", "wall_s (from-points) on synth-io"),
    "interp.system_from_nodes.self_s": ("s", "wall_s (from-points) on synth-io"),
    "matrices.build_family.s": ("s", "wall_s (check) on verdict"),
    "matrices.commutation.s": ("s", "wall_s (check) on verdict"),
    "spectral.eigen.s": ("s", "wall_s on verdict and roundtrip"),
    "spectral.eigen.calls": ("count", "wall_s on verdict and roundtrip"),
    "spectral.criterion.s": ("s", "wall_s on verdict and roundtrip"),
    "spectral.semisimplicity.s": ("s", "wall_s and largest_op_s on verdict"),
    "spectral.clusters": ("count", "wall_s and largest_op_s on verdict"),
    "spectral.solve.self_s": ("s", "wall_s and largest_op_s on roundtrip; none elsewhere"),
    "spectral.generic_frac": ("frac", "wall_s and largest_op_s on roundtrip; none elsewhere"),
    **{
        f"cmd.{c.replace('-', '_')}_s": ("s", f"wall_s wherever {c} runs")
        for c in COMMANDS
    },
    "trace.overhead_s": ("s", "nothing: traced minus untraced wall_s"),
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; call before numpy loads."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cpus)
    return cpus


def git_commit() -> str:
    """HEAD of the enclosing checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


# The host's effective CPU speed wanders by +-25% from one half-minute to
# the next (shared hardware), for interpreter and LAPACK work alike, which
# would swamp the differences this benchmark exists to show.  So a fixed
# reference task, independent of the program, runs between operations
# (outside their timing) about every REF_INTERVAL_S, and every time a run
# reports is scaled by REF_TASK_S / (the median reference time of that run):
# it is given in seconds at the reference speed.  The factor is one per
# run, so the reference's own jitter averages out.  REF_TASK_S is the task's
# median on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31),
# where scaled and measured times agree on average.  Measured times are
# printed alongside.
REF_TASK_S = 0.050
REF_INTERVAL_S = 0.4


class Speed:
    """Samples of the reference task over one run, and the scale they give."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._matrix = rng.normal(size=(80, 80)) + 1j * rng.normal(size=(80, 80))
        self._points = (rng.normal(size=(80, 3)) + 1j * rng.normal(size=(80, 3))).tolist()
        self._exponents = [
            (a, b, c) for a in range(6) for b in range(6) for c in range(6) if a + b + c <= 5
        ][:45]
        self._doc = {"a": [[[x.real, x.imag] for x in row] for row in self._matrix[:60].tolist()]}
        self.samples: list[float] = []
        self._last = -math.inf

    def reference_task(self):
        """LAPACK eigenvalues and SVDs, interpreted complex power products, JSON."""
        np = self._np
        w = np.linalg.eigvals(self._matrix)
        for k in range(6):
            np.linalg.svd(self._matrix - w[k] * np.eye(80), compute_uv=False)
        acc = 0j
        for z in self._points:
            for e in self._exponents:
                v = 1 + 0j
                for zi, ei in zip(z, e):
                    if ei:
                        v *= zi**ei
                acc += v
        json.loads(json.dumps(self._doc, indent=2))

    def maybe_sample(self):
        """Time the reference task if REF_INTERVAL_S has passed since the last time."""
        if time.perf_counter() - self._last < REF_INTERVAL_S:
            return
        start = time.perf_counter()
        self.reference_task()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def scale(self) -> float:
        return REF_TASK_S / statistics.median(self.samples)


def run_op(cli, argv):
    """One in-process CLI call: (exit code or raised exception, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the arguments
        outcome = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the program raised: a failed operation
        outcome = exc
    return outcome, out.getvalue(), time.perf_counter() - start


class Pass:
    """Timings and stdout digests of one pass over a workload."""

    def __init__(self, size):
        self.times = [None] * size  # measured seconds; None: not run
        self.digests = [None] * size
        self.out_bytes = 0


def run_pass(cli, workload, paths, speed=None, results=None, skip=frozenset()) -> Pass:
    """Run every op once, saving each producer's stdout for the ops after it.

    With `speed`, the reference task is sampled between ops (see Speed).

    With `results` (an empty list) this is the reference pass: each op is
    classified into it, and an op whose predecessor did not succeed is
    counted failed without running.  Ops in `skip` are not run.
    """
    from classify import Result, classify

    p = Pass(len(workload.ops))
    contexts = {}
    for i, op in enumerate(workload.ops):
        if i in skip:
            continue
        if results is not None:
            bad = [j for j in op.needs if not results[j].usable]
            if bad:
                detail = f"blocked: {workload.ops[bad[0]].label} gave no usable output"
                results.append(Result("failed", detail))
                continue
        if speed is not None:
            speed.maybe_sample()
        outcome, stdout, elapsed = run_op(cli, workload.resolve(op.argv, paths))
        p.times[i] = elapsed
        data = stdout.encode()
        p.digests[i] = hashlib.sha256(data).hexdigest()
        p.out_bytes += len(data)
        if op.produces:
            Path(paths[op.produces]).write_bytes(data)
        if results is not None:
            ctx = contexts.setdefault(op.needs[0] if op.needs else i, {})
            results.append(classify(op, outcome, stdout, ctx))
    return p


def tail(values):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(values)
    if len(xs) <= TAIL_BEYOND:
        return 0.0, xs[0]
    k = len(xs) - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / len(xs), xs[k]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def per_op_medians(passes, size):
    out = []
    for i in range(size):
        ts = [p.times[i] for p in passes if p.times[i] is not None]
        out.append(statistics.median(ts) if ts else None)
    return out


def end_to_end(workload, passes, results, setup_s):
    from classify import digits

    size = len(workload.ops)
    meds = per_op_medians(passes, size)
    ran = [t for t in meds if t is not None]
    # a fixed number of passes, so that the percentile is the same in every run
    pooled = [t for p in passes[1 : 1 + TAIL_PASSES] for t in p.times if t is not None]
    pct, tail_value = tail(pooled)
    largest = max(op.size for op in workload.ops)
    largest_op = max(
        (t for op, t in zip(workload.ops, meds) if op.size == largest and t is not None),
        default=0.0,
    )
    ok = sum(r.status == "ok" for r in results)
    errors = [
        r.error
        for op, r in zip(workload.ops, results)
        if r.status == "ok"
        and r.error is not None
        and op.command == DIGITS_FROM[workload.name]
        and op.truth.get("family") == "unit"
    ]
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall(passes, size),
        "largest_op_s": largest_op,
        "op_s.p50": median(ran),
        "op_s.tail": tail_value,
        "ok_frac": ok / size,
        "root_digits.min": min(digits(e) for e in errors) if errors else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "passes": len(passes),
        "op_samples": len(pooled),
        "tail_percentile": pct,
        "largest_size": largest,
        "digits_samples": len(errors),
    }
    return metrics, notes


def wall(passes, size) -> float:
    """Time for the whole list of ops: the sum of each op's median over passes."""
    return sum(t for t in per_op_medians(passes, size) if t is not None)


def command_seconds(workload, passes):
    meds = per_op_medians(passes, len(workload.ops))
    return {
        f"cmd.{c.replace('-', '_')}_s": sum(
            t for op, t in zip(workload.ops, meds) if op.command == c and t is not None
        )
        for c in COMMANDS
    }


def measure(args, cli, workload, paths, speed, trace_path):
    """Run passes until --seconds is used up.

    Returns (classification of the first pass, untraced passes, traced
    passes, per-layer metrics of each traced pass).  With --trace 1,
    untraced and traced passes alternate, the first one untraced.
    """
    import border_eig
    from tracer import Tracer, per_layer_metrics

    results = []
    untraced = [run_pass(cli, workload, paths, speed, results)]
    skip = frozenset(i for i, t in enumerate(untraced[0].times) if t is None)
    traced, layers = [], []
    tracer = Tracer(border_eig) if args.trace else None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(untraced) > len(traced):
            tracer.reset()
            with tracer:
                p = run_pass(cli, workload, paths, speed, skip=skip)
            traced.append(p)
            layers.append(per_layer_metrics(tracer, p.out_bytes))
        else:
            untraced.append(run_pass(cli, workload, paths, speed, skip=skip))
        took = time.perf_counter() - t0
        if tracer is None:
            enough = len(untraced) >= MIN_PASSES
        else:
            enough = min(len(untraced), len(traced)) >= MIN_TRACED_PASSES
        if enough and time.perf_counter() - start + took / 2 > args.seconds:
            break
    if tracer is not None:
        tracer.write(trace_path, {"workload": workload.name, "seed": args.seed})
    return results, untraced, traced, layers


def set_up(cli, args, directory: Path):
    """Generate the workload's inputs into `directory` and run the warm-up chain."""
    import inputs

    workload = inputs.build(args.workload, args.seed)
    paths = inputs.write_inputs(workload, directory / "inputs")
    warm = inputs.warmup_workload()
    run_pass(cli, warm, inputs.write_inputs(warm, directory / "warm-up"))
    return workload, paths


def timed_setup(args, directory: Path) -> float:
    """Seconds for a fresh process to import the program, set up and exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(directory)]
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True)
    return time.perf_counter() - start


def run_workload(args) -> int:
    blas_threads = cap_blas_threads()
    if not (ROOT / "src" / "border_eig" / "__init__.py").is_file():
        print(f"border_eig sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (import cost is part of set-up)
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401

    from border_eig import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported border_eig from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2

    if args.setup_only is not None:
        set_up(cli, args, Path(args.setup_only))
        return 0

    env = environment(blas_threads)
    run_dir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        reps = [timed_setup(args, run_dir / f"child{k}") for k in range(SETUP_REPEATS)]
        setup_s = statistics.median(reps)
        workload, paths = set_up(cli, args, run_dir / "run")

        speed = Speed()
        trace_path = WORK / f"trace-{args.workload}-s{args.seed}.json"
        results, untraced, traced, layers = measure(args, cli, workload, paths, speed, trace_path)
        # one op run again after all passes must give the same bytes
        rep = workload.repeat
        repeat_digest = None
        if untraced[0].times[rep] is not None:
            _, stdout, _ = run_op(cli, workload.resolve(workload.ops[rep].argv, paths))
            repeat_digest = hashlib.sha256(stdout.encode()).hexdigest()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    reference = untraced[0].digests
    mismatched = sorted(
        {i for p in untraced[1:] + traced for i, d in enumerate(p.digests) if d != reference[i]}
    )
    if repeat_digest is not None and repeat_digest != reference[rep]:
        mismatched = sorted(set(mismatched) | {rep})
    wrong = [i for i, r in enumerate(results) if r.status == "wrong"]
    failed = [i for i, r in enumerate(results) if r.status != "ok"]

    print("environment: " + json.dumps(env, sort_keys=True))
    scale = speed.scale()
    print(
        f"speed: reference task median {statistics.median(speed.samples):.4f} s over "
        f"{len(speed.samples)} samples, {REF_TASK_S:.4f} s at reference speed; "
        f"reported times are measured times x {scale:.4f}"
    )
    print("  measured s  status  operation")
    for op, r, t in zip(workload.ops, results, per_op_medians(untraced, len(workload.ops))):
        took = "-" if t is None else f"{t:.4f}"
        print(f"  {took:>10}  {r.status:6s}  {op.label}" + (f": {r.detail}" if r.detail else ""))
    for i in mismatched:
        print(f"nondeterministic stdout: {workload.ops[i].label}")

    size = len(workload.ops)
    print(
        f"{args.workload}: attempted {size} ops per pass, failed {len(failed)} "
        f"(wrong {len(wrong)}), fail_frac {len(failed) / size:.4f}"
    )
    if args.trace:
        metrics = {
            name: statistics.median(pass_[name] for pass_ in layers)
            for name in layers[0]
        }
        metrics.update(command_seconds(workload, untraced))
        metrics["trace.overhead_s"] = (
            wall(traced, size) - wall(untraced, size)
        )
        units = PER_LAYER_UNITS
        print(
            f"passes: {len(untraced)} untraced, {len(traced)} traced; "
            f"spans in {trace_path.relative_to(ROOT)}"
        )
    else:
        metrics, notes = end_to_end(workload, untraced, results, setup_s)
        units = END_TO_END_UNITS
        print(
            f"passes: {notes['passes']}; op_s.tail is p{notes['tail_percentile']:.1f} "
            f"of {notes['op_samples']} op times from passes 2-{1 + TAIL_PASSES}; "
            f"largest #I {notes['largest_size']}; "
            f"root_digits over {notes['digits_samples']} unit-modulus {DIGITS_FROM[args.workload]} ops"
        )
    print(f"  {'metric':34s} {'reported':>12s} {'unit':6s} {'measured':>12s}")
    for name in units:
        measured = metrics[name]
        if units[name] == "s":
            metrics[name] = measured * scale
        moves = f"  moves {PER_LAYER[name][1]}" if args.trace else ""
        print(f"  {name:34s} {metrics[name]:>12.6g} {units[name]:6s} {measured:>12.6g}{moves}")
    # Each distinct op is classified once, on the first pass; later passes
    # only time it again and must reproduce its stdout.  So the counts depend
    # on the seed alone, not on how many passes fit in --seconds.
    result = {
        "correct": not wrong and not mismatched,
        "attempted": size,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    import inputs

    summary = {}
    code = 0
    for name in inputs.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                code = proc.returncode
                continue
            summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["roundtrip", "verdict", "synth-io", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="only set up into DIR and exit; setup_s times this in child processes")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
