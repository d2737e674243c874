"""fullgroup benchmark: closed-loop `laws`, `sets` and `certify` workloads.

    python3 bench/run.py --workload laws --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

One process, one caller, no threads.  Set-up (importing fullgroup and
making the first cycle's inputs) is repeated SETUP_REPS times from a
fresh import and its median is `setup_s`.  Tasks then run in whole
cycles until their timed work reaches --seconds.  Each task's outputs
are checked exactly and encoded for the digest outside the timed
region.  With --trace 1, odd cycles run through span wrappers and the
run reports per-layer metrics instead of end-to-end ones; the spans are
written to .bench_out/.  The last line of stdout is the result object.

The 2-CPU host this was written on changes speed by up to 1.6x within
seconds (other tenants share its cores), so every timed interval is
scaled by a calibration probe, a fixed pure-Python loop that never
touches fullgroup: reported times are what the interval would take on
a host where the probe takes PROBE_REF_S.  The loop's stopping rule
uses scaled time too, so a run does the same number of tasks on a slow
or a fast host.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # before fullgroup is imported

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
from collections import deque
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, per_layer_catalog   # noqa: E402
from workloads import Certify, Laws, Sets       # noqa: E402

WORKLOADS = {w.name: w for w in (Laws, Sets, Certify)}
SETUP_REPS = 5
PROBE_LOOPS = 4000
PROBE_REF_S = 0.0015    # probe median on a 2-CPU x86 host, Python 3.11
DIGEST_CYCLES = 2
# Tail percentile per workload and task group: one of 50, 75, 90, 95
# and 99 that leaves at least ten samples beyond it, with room to spare,
# in a 20-second run of the seed code.  On certify the slowest tasks
# come in steps, one odometer shape each; the percentile for all tasks
# is one that falls inside a step (between two shapes of similar cost),
# not at its edge, where it would swing from run to run.  Fixed, so a
# run that completes more or fewer tasks still reports the same
# statistic.
TAIL = {
    "laws": {"all": 95, "odo": 95, "shift": 95},
    "sets": {"all": 90, "odo": 75, "shift": 75},
    "certify": {"all": 90, "odo": 75, "shift": 75},
}
END_TO_END = [
    ("setup_s", "s"), ("task_ms.p50", "ms"), ("task_ms.tail", "ms"),
    ("tasks_per_s", "1/s"),
    ("odo.task_ms.p50", "ms"), ("odo.task_ms.tail", "ms"),
    ("shift.task_ms.p50", "ms"), ("shift.task_ms.tail", "ms"),
    ("output_size.mean", "count"), ("peak_rss_mb", "MB"),
]


class HostSpeed:
    """Scale factor from measured host time to reference time, from the
    median of the last five probes."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=5)
        for _ in range(self.recent.maxlen):
            self.factor()

    def factor(self) -> float:
        table: dict = {}
        start = time.perf_counter()
        for i in range(PROBE_LOOPS):
            key = (i & 63, i % 3)
            table[key] = table.get(key, 0) + i
        self.recent.append(time.perf_counter() - start)
        return PROBE_REF_S / statistics.median(self.recent)


def load_library() -> SimpleNamespace:
    """Import fullgroup afresh (empty caches) and collect what the
    workloads call."""
    for name in [m for m in sys.modules if m == "fullgroup" or m.startswith("fullgroup.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    fg = importlib.import_module("fullgroup")
    randomize = importlib.import_module("fullgroup.randomize")
    encoding = importlib.import_module("fullgroup.encoding")
    C = fg.ClopenSet
    return SimpleNamespace(
        ClopenSet=C, from_words=C.from_words, union=C.union, intersect=C.intersect,
        difference=C.difference, complement=C.complement, is_subset=C.is_subset,
        measure=C.measure,
        backend=encoding.parse_backend, compare_clopen=fg.compare_clopen,
        source_range=fg.source_range, OdometerPiece=fg.OdometerPiece,
        exact_swap_involution=fg.exact_swap_involution, gw_intertwining=fg.gw_intertwining,
        random_element=randomize.random_element,
        swap_equivalent_pair=randomize.swap_equivalent_pair,
        identity=fg.identity, element_from_pieces=fg.element_from_pieces,
        compose=fg.compose, inverse=fg.inverse, equals=fg.equals,
        conjugate=fg.conjugate, support=fg.support, image_of_clopen=fg.image_of_clopen,
        commutator=fg.commutator,
        format_element=encoding.format_element, format_clopen=encoding.format_clopen,
        format_bisection=encoding.format_bisection, parse_element=encoding.parse_element,
        Environment=fg.Environment, ConjugateProduct=fg.ConjugateProduct,
        ConjugateFactor=fg.ConjugateFactor,
        commutator_in_normal_closure=fg.commutator_in_normal_closure,
        dump_certificate=fg.dump_certificate, load_certificate=fg.load_certificate,
        verify_certificate=fg.verify_certificate,
    )


def set_up(kind, seed: int, speed: HostSpeed):
    """SETUP_REPS cold set-ups; returns the last one and the median
    scaled duration, the first measured from process start."""
    durations = []
    start = T_START
    for _ in range(SETUP_REPS):
        lib = load_library()
        workload = kind(lib, seed)
        first = workload.cycle(lib, 0)
        elapsed = time.perf_counter() - start
        durations.append(elapsed * speed.factor())
        start = time.perf_counter()
    return lib, workload, first, statistics.median(durations)


def run_cycles(workload, lib, first, seconds: float, trace: bool, speed: HostSpeed):
    tracer = Tracer() if trace else None
    traced_lib = tracer.wrap(lib) if trace else None
    rows = []                       # (family, reference seconds, traced, cycle)
    factors = []
    failures: list[str] = []
    digest = hashlib.sha256()
    digest_tasks = 0
    sizes: list[int] = []
    busy = 0.0
    number, tasks = 0, first
    while True:
        traced = trace and number % 2 == 1
        run_lib = traced_lib if traced else lib
        for task in tasks:
            if traced:
                tracer.begin_task(task.id, task.family if workload.spans_by_family else None)
            start = time.perf_counter()
            try:
                out = workload.run(run_lib, task)
            except Exception as exc:  # a failed task is counted, the run goes on
                out = None
                failures.append(f"task {task.id}: raised {type(exc).__name__}: {exc}")
            end = time.perf_counter()
            # the probe window holds four probes from before the task and one after
            factor = speed.factor()
            elapsed = (end - start) * factor
            factors.append(factor)
            if traced:
                tracer.end_task(end, factor)
            busy += elapsed
            rows.append((task.family, elapsed, traced, number))
            if out is None:
                continue
            try:
                bad = workload.check(lib, task, out)
            except Exception as exc:  # a check that raises is a failed check
                bad = [f"check raised {type(exc).__name__}: {exc}"]
            if bad:
                failures.append(f"task {task.id}: {', '.join(bad)}")
            if number < DIGEST_CYCLES:
                digest.update(workload.encode(lib, task, out).encode() + b"\n")
                digest_tasks += 1
            sizes.append(workload.output_size(out))
        number += 1
        if busy >= seconds and number >= (3 if trace else 1):
            break
        tasks = workload.cycle(lib, number)
    return SimpleNamespace(rows=rows, failures=failures, digest=digest.hexdigest(),
                           digest_tasks=digest_tasks, sizes=sizes, cycles=number,
                           host_factor=statistics.median(factors),
                           tracer=tracer)


def end_to_end(name: str, result, setup_s: float) -> dict[str, float]:
    tails = TAIL[name]
    times = {"all": [row[1] * 1e3 for row in result.rows]}
    for fam in ("odo", "shift"):
        times[fam] = [row[1] * 1e3 for row in result.rows if row[0] == fam]
    values = {"setup_s": setup_s,
              "tasks_per_s": len(result.rows) / (sum(times["all"]) / 1e3)}
    for group, xs in times.items():
        prefix = "" if group == "all" else f"{group}."
        values[f"{prefix}task_ms.p50"] = statistics.median(xs)
        values[f"{prefix}task_ms.tail"] = statistics.quantiles(
            xs, n=100, method="inclusive")[tails[group] - 1]
    values["output_size.mean"] = statistics.fmean(result.sizes)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


def trace_overhead(result) -> float:
    """1 - traced tasks_per_s / untraced tasks_per_s, over whole cycles
    after the first, which runs untraced on cold caches."""
    def rate(traced):
        xs = [s for _, s, t, number in result.rows if t == traced and number > 0]
        return len(xs) / sum(xs)
    return 1 - rate(True) / rate(False)


def bench(args) -> int:
    if not (ROOT / "src" / "fullgroup" / "__init__.py").is_file():
        print("bench: fullgroup sources not found under src/", file=sys.stderr)
        return 2
    kind = WORKLOADS[args.workload]
    speed = HostSpeed()
    lib, workload, first, setup_s = set_up(kind, args.seed, speed)
    result = run_cycles(workload, lib, first, args.seconds, bool(args.trace), speed)
    if args.trace:
        values = result.tracer.per_layer(trace_overhead(result))
        units = dict(per_layer_catalog())
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        result.tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        values = end_to_end(args.workload, result, setup_s)
        units = dict(END_TO_END)
    attempted = len(result.rows)
    counts = {g: sum(1 for row in result.rows if g in ("all", row[0]))
              for g in ("all", "odo", "shift")}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "digest": result.digest,
        "digest_tasks": result.digest_tasks, "cycles": result.cycles,
        "samples": counts, "tail_percentiles": TAIL[args.workload],
        "host_factor": result.host_factor,
        "failed_ratio": len(result.failures) / attempted, "failures": result.failures[:20],
    }))
    print(json.dumps({
        "correct": not result.failures, "attempted": attempted,
        "failed": len(result.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the output contract")
    args = parser.parse_args()
    if args.smoke:
        from smoke import smoke
        return smoke(Path(__file__).resolve(), ROOT)
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
