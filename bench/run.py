"""levybridge benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload {surface,quotes,paths} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones (setup_s, items_per_s, call_p50_ms, peak_rss_mb); with
--trace 1 they are the per-layer ones of `tracer.LAYERS` plus the cold
import times. See bench/README.md for what each workload does and why.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5  # fresh interpreters timed for setup_s, spread through the run
IMPORT_PROBES = 3  # cold imports of levybridge and of its floor, traced run only

_IMPORT_CODE = """
import json, sys, time
t = time.perf_counter()
import levybridge
elapsed = time.perf_counter() - t
scipy = sorted({v.__name__ for k, m in list(sys.modules.items()) if k.split(".")[0] == "levybridge"
                for v in vars(m).values()
                if type(v) is type(sys) and v.__name__.startswith("scipy.")})
print(json.dumps({"seconds": elapsed, "scipy": scipy}))
"""

_FLOOR_CODE = """
import json, time, importlib
t = time.perf_counter()
import numpy
for name in {modules!r}:
    importlib.import_module(name)
print(json.dumps({{"seconds": time.perf_counter() - t}}))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# fresh-interpreter probes


def time_setup(inputs: Path) -> float:
    """Seconds from spawning an interpreter to the workload's first result."""
    argv = [sys.executable, str(HERE / "run.py"), "--probe-setup", str(inputs)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=_child_env(),
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def probe_setup(inputs: Path) -> int:
    """Child side of `time_setup`: import, build the specs, answer one request."""
    import levybridge as lb
    import workloads

    meta, arrays = workloads.load_inputs(inputs)
    ops = workloads.make_ops(lb, meta, arrays)
    ops[0].run()
    print("ready", flush=True)
    return 0


def time_import(code: str) -> dict:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_child_env(), cwd=ROOT, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the warm loop


class Loop:
    """Runs whole rounds of ops, timing each call and checking its output."""

    def __init__(self, ops, checks, tracer=None):
        self.ops, self.checks, self.tracer = ops, checks, tracer
        self.attempted = self.failed = self.rounds = self.items = 0
        self.busy = 0.0
        self.latencies: list[float] = []
        self.per_op: list[list[float]] = [[] for _ in ops]
        self.errors: list[str] = []
        self.failures: dict[str, int] = {}

    def run_op(self, i: int, op, counted: bool = True) -> None:
        tracer = self.tracer if self.tracer is not None and self.tracer.enabled else None
        if tracer is not None:
            # the operation is the root span; its spans share this request id
            tracer.request = f"{self.rounds}:{i}"
            frame = tracer.enter("op")
        start = time.perf_counter()
        try:
            result = op.run()
            failure = None
        except Exception as exc:  # a failed operation is counted, not fatal
            failure = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.exit(frame)
        if failure is None:
            error = self.checks[i](result)
            if error:
                self.errors.append(f"{op.name}: {error}")
        if not counted:
            return
        self.attempted += 1
        self.busy += elapsed
        self.per_op[i].append(elapsed)
        if failure is None:
            self.items += op.items
            self.latencies.append(elapsed)
        else:
            self.failed += 1
            key = f"{op.name}: {failure.splitlines()[0][:160]}"
            self.failures[key] = self.failures.get(key, 0) + 1
            # a failed call misses any latency target
            self.latencies.append(math.inf)

    def warm_up(self) -> None:
        for i, op in enumerate(self.ops):
            self.run_op(i, op, counted=False)

    def run(self, seconds: float, between_ops=None, after_round=None) -> None:
        """Whole rounds until ``seconds`` of loop time (probes excluded)."""
        start = time.perf_counter()
        paused = 0.0
        while True:
            for i, op in enumerate(self.ops):
                self.run_op(i, op)
                if between_ops is not None:
                    t = time.perf_counter()
                    between_ops(t - start - paused)
                    paused += time.perf_counter() - t
            self.rounds += 1
            if after_round is not None:
                after_round()
            if time.perf_counter() - start - paused >= seconds:
                return

    def absorb(self, other: "Loop") -> None:
        """Add another loop's operation counts and findings to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.rounds += other.rounds
        self.errors += other.errors
        for key, n in other.failures.items():
            self.failures[key] = self.failures.get(key, 0) + n

    def items_per_s(self) -> float:
        return self.items / self.busy

    def report_calls(self) -> None:
        """Median wall time of each call of the round, for reading by eye."""
        for op, times in zip(self.ops, self.per_op):
            if times:
                print(f"  {statistics.median(times) * 1e3:10.2f} ms  {op.name} ({op.items} items)")


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args, inputs: Path) -> tuple[dict, Loop]:
    setups = []
    time_setup(inputs)  # discarded: the first start after a checkout compiles bytecode
    import levybridge as lb
    import workloads

    meta, arrays = workloads.load_inputs(inputs)
    ops = workloads.make_ops(lb, meta, arrays)
    loop = Loop(ops, workloads.make_checks(lb, meta, arrays, ops))
    loop.warm_up()

    def maybe_probe(loop_time: float) -> None:
        due = (len(setups) + 0.5) * args.seconds / SETUP_PROBES
        if len(setups) < SETUP_PROBES and loop_time >= due:
            setups.append(time_setup(inputs))

    loop.run(args.seconds, maybe_probe)
    while len(setups) < SETUP_PROBES:
        setups.append(time_setup(inputs))
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    loop.report_calls()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (loop.items_per_s(), "1/s"),
        "call_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, loop


def traced(args, inputs: Path) -> tuple[dict, Loop]:
    time_import(_IMPORT_CODE)  # discarded, as in end_to_end
    lb_times, floor_times = [], []
    for _ in range(IMPORT_PROBES):
        probe = time_import(_IMPORT_CODE)
        lb_times.append(probe["seconds"])
        floor_times.append(time_import(_FLOOR_CODE.format(modules=probe["scipy"]))["seconds"])
    print(f"import floor: numpy + {', '.join(probe['scipy'])}")

    import levybridge as lb
    import tracer as tracing
    import workloads

    meta, arrays = workloads.load_inputs(inputs)
    ops = workloads.make_ops(lb, meta, arrays)
    loop = Loop(ops, workloads.make_checks(lb, meta, arrays, ops))
    loop.warm_up()
    loop.run(args.seconds / 2.0)
    untraced = loop.items_per_s()
    loop.report_calls()

    # the traced half: counts are taken per round and must repeat exactly
    tracer = tracing.Tracer()
    tracer.install()
    traced_loop = Loop(ops, loop.checks, tracer)
    snapshots = []
    tracer.enabled = True
    traced_loop.run(args.seconds / 2.0, after_round=lambda: snapshots.append(dict(tracer.counts)))
    tracer.enabled = False
    with_tracing = traced_loop.items_per_s()
    deltas = [{k: v - before.get(k, 0) for k, v in after.items()}
              for before, after in zip([{}] + snapshots, snapshots)]
    same = all(d == deltas[0] for d in deltas)
    print(f"untraced rounds {loop.rounds}, traced rounds {traced_loop.rounds}; per-round "
          f"counts {'identical' if same else 'DIFFER'} across the traced rounds")
    tracer.write(args.outdir / "trace.json")
    print(f"tracing overhead: items_per_s untraced {untraced:.6g}, traced {with_tracing:.6g}, "
          f"difference {with_tracing - untraced:.6g} "
          f"({100.0 * (with_tracing - untraced) / untraced:+.1f}%)")
    if tracer.absent:
        print(f"absent (wrapped name no longer exists): {', '.join(tracer.absent)}")

    metrics = {name: (value, "s" if name.endswith("self_s") else "count")
               for name, value in tracer.metrics(traced_loop.rounds).items()}
    metrics["import.levybridge_s"] = (statistics.median(lb_times), "s")
    metrics["import.floor_s"] = (statistics.median(floor_times), "s")
    loop.absorb(traced_loop)
    return metrics, loop


# ---------------------------------------------------------------------------


def _machine_facts() -> str:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("surface", "quotes", "paths"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "levybridge" / "__init__.py").is_file():
        print(f"levybridge sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup is not None:
        return probe_setup(args.probe_setup)
    if args.workload is None:
        parser.error("--workload is required")

    import workloads

    args.outdir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(args.outdir, ignore_errors=True)
    args.outdir.mkdir(parents=True)
    inputs = workloads.make_inputs(args.workload, args.seed, args.outdir)
    print(_machine_facts())

    run = traced if args.trace else end_to_end
    metrics, loop = run(args, inputs)

    print(f"workload {args.workload}, seed {args.seed}: {loop.rounds} rounds of "
          f"{len(loop.ops)} ops, {loop.attempted} attempted, {loop.failed} failed")
    for key, n in loop.failures.items():
        print(f"failed x{n}: {key}")
    for error in loop.errors[:10]:
        print(f"INCORRECT: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    result = {
        "correct": not loop.errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
