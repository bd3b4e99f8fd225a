#!/usr/bin/env python3
"""Run one conefourier benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload cones-large --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout. Set-up (a
fresh import of the package plus making the workload's inputs from the
seed) is repeated several times and its median reported. Then whole rounds
of the workload run until ``--seconds`` have passed; each operation is
checked after it is timed. End-to-end times are in reference seconds
(``clock.py``): measured seconds corrected by a calibration kernel timed
between operations. With ``--trace 1`` the program's public functions are
wrapped, one round is traced, so that every count is the same on every
machine, and the per-layer metrics (measured seconds, the kernel left out)
are printed instead; the same round run untraced just before gives the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the workload's own figures (``detail``), which are not gated. Both,
and in a traced run the per-function trace, are also written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is repeated at least MIN_SETUPS times and until SETUP_BUDGET_S
# seconds or MAX_SETUPS repetitions are reached; cheap set-ups get more
# repetitions, so that their median is not one noisy reading.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 15, 1.5

sys.path.insert(0, str(HERE))

from clock import Clock  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Run:
    """What one run measured: operation times, named samples and failures.

    Intervals are kept as measured until ``finish``, which converts them to
    reference seconds with the run's clock (unchanged without one)."""

    def __init__(self, clock: Clock | None = None, tracer: Tracer | None = None):
        self.clock = clock
        self.tracer = tracer
        self.now = perf_counter if clock is None else clock.now
        self.measured: list[float] = []
        self.op_times: list[float] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._ops: list[tuple[float, float, float]] = []
        self._samples: list[tuple[str, float, float, int]] = []

    def attempt(self, operation):
        """Time and check one operation.

        ``operation()`` makes the timed program calls, timing them with
        ``now``, and returns (seconds, check); check() runs afterwards with
        the tracer paused. An exception from the program fails the
        operation; a check that does not hold fails it and marks the run's
        output incorrect."""
        self.attempted += 1
        start = self.now()
        try:
            seconds, check = operation()
        except Exception:  # one failing operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        self._ops.append((start, self.now(), seconds))
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            ok = bool(check())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
        if not ok:
            self.failed += 1
            self.wrong += 1

    def sample(self, key: str, start: float, end: float, count: int = 1):
        """Record a named interval, measured with ``now``, per ``count`` items."""
        self._samples.append((key, start, end, count))

    def finish(self):
        """Convert every time to reference seconds."""

        def factor(start, end):
            return 1.0 if self.clock is None else self.clock.factor(start, end)

        for start, end, seconds in self._ops:
            self.measured.append(seconds)
            self.op_times.append(seconds * factor(start, end))
        for key, start, end, count in self._samples:
            self.samples[key].append((end - start) / count * factor(start, end))

    def ops_per_s(self) -> float:
        total = sum(self.op_times)
        return len(self.op_times) / total if total else 0.0


def fresh_import():
    """Import conefourier from this checkout's src/ as if for the first time."""
    for name in [m for m in sys.modules if m == "conefourier" or m.startswith("conefourier.")]:
        del sys.modules[name]
    package = importlib.import_module("conefourier")
    for layer in LAYERS:
        importlib.import_module(f"conefourier.{layer}")
    if Path(package.__file__).resolve().parent != SRC / "conefourier":
        raise ImportError(f"conefourier was imported from {package.__file__}, not from {SRC}")
    return package


def setup(workload, seed: int, trace: bool):
    package = fresh_import()
    return package, workload.make_inputs(package, seed, trace)


def run_untraced(workload, seed: int, seconds: float):
    setups = []  # (start, end) on the clock's scale
    with Clock() as clock:
        while len(setups) < MIN_SETUPS or (
            sum(end - start for start, end in setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
        ):
            start = clock.now()
            package, inputs = setup(workload, seed, False)
            setups.append((start, clock.now()))
        run = Run(clock)
        start = perf_counter()
        rounds = 0
        while rounds == 0 or perf_counter() - start < seconds:
            workload.run_round(package, inputs, rounds, run)
            rounds += 1
    run.finish()
    metrics = {
        "setup_s": statistics.median((end - start) * clock.factor(start, end) for start, end in setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": run.ops_per_s(),
        "op_p50_s": statistics.median(run.op_times),
    }
    detail = {
        "setups": len(setups),
        "rounds": rounds,
        "operations": run.attempted,
        "kernel_samples": len(clock.values),
        "kernel_median_s": statistics.median(clock.values),
        "measured_setup_s": statistics.median(end - start for start, end in setups),
        "measured_op_p50_s": statistics.median(run.measured),
        "measured_mean_op_s": statistics.fmean(run.measured),
        "mean_op_s": statistics.fmean(run.op_times),
        **workload.detail(run),
    }
    return run, metrics, detail


def run_traced(workload, seed: int):
    """One round untraced, then the same round traced: the counts come from
    the traced round, and the ratio of the two rounds' operation times in
    reference seconds is the tracing overhead. A first untraced round warms
    the caches and is not counted. Spans are timed on the clock's scale, so
    they leave its kernel out."""
    with Clock() as clock:
        package, inputs = setup(workload, seed, True)
        workload.run_round(package, inputs, 0, Run(clock))
        plain = Run(clock)
        workload.run_round(package, inputs, 0, plain)
        tracer = Tracer(clock.now)
        tracer.install(package)
        inputs = workload.make_inputs(package, seed, True)  # again, so that sampling is traced
        run = Run(clock, tracer)
        workload.run_round(package, inputs, 0, run)
    plain.finish()
    run.finish()
    detail = {
        "operations": run.attempted,
        "mean_op_s": statistics.fmean(run.op_times),
        "untraced_mean_op_s": statistics.fmean(plain.op_times),
        "tracing_overhead": statistics.fmean(run.op_times) / statistics.fmean(plain.op_times) - 1,
    }
    return run, layer_metrics(tracer, run.attempted), {**detail, "trace": tracer.dump()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if not (SRC / "conefourier" / "__init__.py").is_file():
        print(f"no conefourier package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    if args.trace:
        run, values, detail = run_traced(workload, args.seed)
    else:
        run, values, detail = run_untraced(workload, args.seed, args.seconds)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    print(json.dumps({"detail": {k: v for k, v in detail.items() if k != "trace"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
