"""pilotspace benchmark: end-to-end and per-layer metrics from one command.

Run from the repository root:

    python3 bench/run.py --workload multipath --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload cli --seed 3 --seconds 20 --trace 1
    python3 bench/run.py --self-test
    python3 bench/run.py --write-reference

Workloads (see ``workloads.py`` for why each exists): ``multipath``,
``cli`` and ``large``.  Each is a closed loop with one client: the next op
starts when the previous one has finished and been checked.  Inputs are
generated from ``--seed``; the library only ever sees the generated inputs.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``        median wall time of ``import pilotspace`` in a fresh
                     interpreter (several interpreters per run);
* ``ops_per_s``      ops that passed their checks per wall second;
* ``op_ms.p50``      median op latency;
* ``op_ms.tail``     latency of the highest percentile with at least 10 ops
                     beyond it (the percentile and count are in the record);
* ``cpu_ms_per_op``  process plus child CPU time per op;
* ``peak_rss_mb``    peak resident memory of this process, or of the
                     largest child process for ``cli``.

``--trace 1`` runs the same ops in process twice, untraced and then with
every traced pilotspace function wrapped (``tracing.py``), and prints the
per-layer metrics: ``<module>.<function>.calls_per_op`` and
``.self_ms_per_op``, ``pilot.verify_share``, ``experiments.redraw_ratio``
(trials over channel draws; 1 when no multipath trial ran),
``models.estimated_variation_space.raised_per_op``, ``import.*`` (summed
self time of each package's modules under ``python -X importtime``) and the
tracing overhead ``trace.overhead_ms_per_op`` over ``trace.untraced_op_ms``.
In the traced run a fixed block of ops repeats with the same inputs, so
the call counts repeat exactly for a given seed.

Every op's output is checked; ``error_rate`` = failed / attempted.  The
line before the final JSON line is a record of the run: machine facts,
the pinned BLAS thread count, load average at start and end, the tail
percentile and sample count, the error rate and which checks ran.

BLAS is pinned to one thread (``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``)
in this process and every child, before numpy is imported: the default
thread count burns more CPU for the same wall time on these matrix sizes
and adds scheduler noise.
"""

from __future__ import annotations

import os
import sys

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
os.environ.pop("PILOTSPACE_THREADS", None)

import argparse
import copy
import importlib.metadata
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
SETUP_REPEATS = 3         # fresh interpreters timed before and again after the ops
SETUP_CODE = ("import time; t = time.perf_counter(); import pilotspace; "
              "print(repr(time.perf_counter() - t))")
TAIL_BEYOND = 10
WORKLOADS = ("multipath", "cli", "large")


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)


def load_library():
    """Import pilotspace from this checkout's src/, or exit without a result."""
    if not (SRC / "pilotspace" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'pilotspace'} not found; run from a pilotspace checkout")
    sys.path.insert(0, str(SRC))
    import pilotspace
    if Path(pilotspace.__file__).resolve().parent != SRC / "pilotspace":
        sys.exit(f"bench: imported pilotspace from {pilotspace.__file__}, not {SRC}")


# ---------------------------------------------------------------- measuring

def time_setup(env):
    """In-child wall times of ``import pilotspace`` in fresh interpreters."""
    run = dict(env=env, cwd=OUT, capture_output=True, text=True, check=True, timeout=60)
    return [float(subprocess.run([sys.executable, "-c", SETUP_CODE], **run).stdout)
            for _ in range(SETUP_REPEATS)]


def import_breakdown(env):
    import tracing
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pilotspace"],
                          env=env, cwd=OUT, capture_output=True, text=True, check=True,
                          timeout=60)
    return {f"import.{key}_ms": tracing.import_self_ms(proc.stderr, pkg)
            for key, pkg in (("numpy", "numpy"), ("scipy", "scipy"),
                             ("pilotspace_self", "pilotspace"))}


class Tally:
    """Outcome of a sequence of ops: latencies, failures and, if asked, outputs."""

    def __init__(self, keep_outputs=False):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.outputs = [] if keep_outputs else None

    def run_op(self, op):
        self.attempted += 1
        start = time.perf_counter()
        try:
            raw = op.run()
            elapsed = time.perf_counter() - start
            out = op.collect(raw)
            failures = op.verify(out)
        except Exception as err:          # an op that raises counts as failed
            elapsed = time.perf_counter() - start
            out, failures = None, [f"raised {type(err).__name__}: {err}"]
        self.latencies.append(elapsed)
        if failures:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{op.label}: {'; '.join(failures)}")
        elif self.outputs is not None:
            self.outputs.append(out)


def run_ops(workload, indices, tally, tracer=None):
    """Run the ops at ``indices`` in order and return their wall time."""
    start = time.perf_counter()
    for i in indices:
        if tracer is not None:
            tracer.op = tally.attempted
        tally.run_op(workload.op(i))
    return time.perf_counter() - start


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def machine_facts():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    try:      # read from metadata: importing scipy here would count in peak_rss_mb
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_vendor,
        "pinned_env": PINNED_ENV,
    }


# ---------------------------------------------------------------- runs

def make_workload(name, seed, in_process):
    import workloads
    cls = workloads.WORKLOADS[name]
    workdir = OUT / name
    if workdir.exists():
        shutil.rmtree(workdir)
    kwargs = {"env": child_env()} if name == "cli" else {}
    return cls(seed, workdir, in_process=in_process, **kwargs)


def end_to_end(args, record):
    env = child_env()
    subprocess.run([sys.executable, "-c", "import pilotspace"], env=env, cwd=OUT,
                   check=True, timeout=60)                        # writes the .pyc files
    setup_times = time_setup(env)
    workload = make_workload(args.workload, args.seed, in_process=False)
    record["checks"] = workload.reference_note
    warm = Tally()
    run_ops(workload, range(workload.warmup), warm)
    # Whole cycles of fresh ops, so every run measures the same mix.
    tally = Tally()
    cpu0 = cpu_seconds()
    wall, i = 0.0, workload.warmup
    while wall < args.seconds:
        wall += run_ops(workload, range(i, i + workload.cycle), tally)
        i += workload.cycle
    cpu = cpu_seconds() - cpu0
    setup_times += time_setup(env)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    tail_s, tail_pct, n = tail(tally.latencies)
    record["tail"] = {"percentile": tail_pct, "samples": n}
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": ((tally.attempted - tally.failed) / wall, "1/s"),
        "op_ms.p50": (1e3 * statistics.median(tally.latencies), "ms"),
        "op_ms.tail": (1e3 * tail_s, "ms"),
        "cpu_ms_per_op": (1e3 * cpu / tally.attempted, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return [warm, tally], metrics


def per_layer(args, record):
    import tracing
    imports = import_breakdown(child_env())
    workload = make_workload(args.workload, args.seed, in_process=True)
    record["checks"] = workload.reference_note
    warm = Tally()
    run_ops(workload, range(workload.warmup), warm)
    # One block of ops, repeated with identical inputs, alternately untraced
    # and traced so that drift in machine load hits both sides alike.
    block = range(workload.trace_block)
    plain, traced = Tally(), Tally(keep_outputs=True)
    tracer = tracing.Tracer()
    plain_wall = traced_wall = 0.0
    while plain_wall + traced_wall < args.seconds:
        plain_wall += run_ops(workload, block, plain)
        tracer.install()
        try:
            traced_wall += run_ops(workload, block, traced, tracer)
        finally:
            tracer.uninstall()
    tracer.write(OUT / f"spans-{args.workload}.csv")      # the latest traced run

    n_ops = traced.attempted
    summary = tracer.summary(n_ops)
    metrics = {}
    for name, row in summary.items():
        metrics[f"{name}.calls_per_op"] = (row["calls_per_op"], "count")
        metrics[f"{name}.self_ms_per_op"] = (row["self_ms_per_op"], "ms")
    multipath_outputs = [out for out in traced.outputs if "redraws" in out]
    trials = len(multipath_outputs) * getattr(workload, "n_trials", 0)
    redraws = sum(out["redraws"] for out in multipath_outputs)
    metrics["pilot.verify_share"] = (tracer.child_share("pilot.design_observation_matrix"),
                                     "ratio")
    metrics["experiments.redraw_ratio"] = (trials / (trials + redraws) if trials else 1.0,
                                           "ratio")
    metrics["models.estimated_variation_space.raised_per_op"] = (
        summary["models.estimated_variation_space"]["raised_per_op"], "count")
    for name, value in imports.items():
        metrics[name] = (value, "ms")
    plain_ms = 1e3 * plain_wall / plain.attempted
    metrics["trace.untraced_op_ms"] = (plain_ms, "ms")
    metrics["trace.overhead_ms_per_op"] = (1e3 * traced_wall / n_ops - plain_ms, "ms")
    record["traced_ops"] = n_ops
    return [warm, plain, traced], metrics


def benchmark(args):
    load_library()
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "loadavg_start": os.getloadavg()}
    record.update(machine_facts())
    tallies, metrics = (per_layer if args.trace else end_to_end)(args, record)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    record["loadavg_end"] = os.getloadavg()
    record["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    record["failures"] = [m for t in tallies for m in t.messages][:5]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------- self-test

def _corruptions(label, out):
    """(description, corrupted copy) pairs for a correct op output."""
    cases = []

    def case(desc, mutate):
        bad = copy.deepcopy(out)
        mutate(bad)
        cases.append((desc, bad))

    def scale_row(strategy, delta):
        def mutate(bad):
            i = next(j for j, r in enumerate(bad["rows"])
                     if r[0] == strategy and r[1] == delta and r[2] == 0.0)
            bad["rows"][i] = (*bad["rows"][i][:3], bad["rows"][i][3] * (1 + 1e-7))
        return mutate

    def payload_set(key, value):
        def mutate(bad):
            bad["stdout"] = json.dumps({**json.loads(bad["stdout"]), key: value})
        return mutate

    def scale_first_column(bad):
        for row in bad["matrix"]["data"]:
            row[0] = [1.001 * v for v in row[0]]

    def copy_second_column_into_first(bad):
        for row in bad["matrix"]["data"]:
            row[0] = list(row[1])

    def bump_single_path_csv(bad):
        lines = bad["csv"].splitlines()
        for j, line in enumerate(lines):
            f = line.split(",")
            if f[:3] == ["Proposed", "5.0", "10.0"]:
                f[3] = repr(float(f[3]) * (1 + 1e-7))
                lines[j] = ",".join(f)
        bad["csv"] = "\n".join(lines) + "\n"

    if label.startswith("multipath"):
        case("AC delta=5 bound off by 1e-7 relative", scale_row("AngleConstrained", 5.0))
        case("Proposed delta=1 bound off by 1e-7 relative", scale_row("Proposed", 1.0))
        case("a curve row missing", lambda bad: bad["rows"].pop())
    elif label.startswith("large"):
        case("achieved CRB off by 1e-8 relative",
             lambda bad: bad.update(achieved=bad["achieved"] * (1 + 1e-8)))
        case("crb_direct off by 1e-7 relative",
             lambda bad: bad.update(direct=bad["direct"] * (1 + 1e-7)))
        case("one pilot column too many",
             lambda bad: bad.update(n_columns=bad["n_columns"] + 1))
        case("verdict flipped", lambda bad: bad.update(identifiable=False))
    else:
        case("unexpected exit code", lambda bad: bad.update(code=bad["code"] ^ 1))
        if "matrix" in out:
            case("achieved CRB off by 1e-8 relative", lambda bad: bad["report"].update(
                achieved_crb=bad["report"]["achieved_crb"] * (1 + 1e-8)))
            case("first matrix column scaled by 1.001", scale_first_column)
            case("second matrix column copied into the first", copy_second_column_into_first)
        if label.endswith("[crb]"):
            case("crb off by 1e-7 relative",
                 payload_set("crb", json.loads(out["stdout"])["crb"] * (1 + 1e-7)))
        if label.endswith("[crb-undersized]"):
            case("finite crb for an undersized M", payload_set("crb", 1.0))
        if "identify" in label:
            case("verdict flipped", payload_set(
                "identifiable", not json.loads(out["stdout"])["identifiable"]))
        if "csv" in out:
            case("single-path bound off by 1e-7 relative", bump_single_path_csv)
    return cases


def self_test():
    """Correct outputs pass their checks; corrupted copies are counted as failed."""
    load_library()
    OUT.mkdir(exist_ok=True)
    import workloads
    ok = True
    for name in workloads.WORKLOADS:
        workload = make_workload(name, workloads.DEFAULT_SEED, in_process=True)
        for i in range(workload.cycle):
            op = workload.op(i)
            out = op.collect(op.run())
            good = Tally()
            good.run_op(_ReplayOp(op, out))
            ok &= good.failed == 0
            print(f"{op.label}: correct output {'passes' if good.failed == 0 else 'FAILS'}")
            for desc, bad in _corruptions(op.label, out):
                tally = Tally()
                tally.run_op(_ReplayOp(op, bad))
                ok &= tally.failed == 1
                verdict = "counted as failed" if tally.failed else "NOT DETECTED"
                print(f"  {desc}: {verdict}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


class _ReplayOp:
    """An op whose run returns a stored output, checked by the op's own verifier."""

    def __init__(self, op, out):
        self.label, self.verify = op.label, op.verify
        self.run = lambda: out
        self.collect = lambda raw: raw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed; 7 is the seed of the stored reference curves")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted outputs are counted as failed")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the multipath reference curves")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.write_reference:
        load_library()
        import workloads
        workloads.write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True, timeout=600)
        return 0
    benchmark(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
