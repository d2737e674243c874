"""In-memory spans around the benchmark's calls into fullgroup.

Every library function the workloads call is reached through a
namespace.  The plain namespace holds the functions themselves; the
traced one wraps each in a span named `<layer>.<function>` (prefixed
with the task family, `odo.` or `shift.`, on `certify`).  The task span
is the parent of every call span, because the benchmark never calls the
library from inside another library call.  Spans are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from types import SimpleNamespace

# attribute of the library namespace -> span name (layer = module)
SPAN_NAMES = {
    "from_words": "clopen.from_words",
    "union": "clopen.union",
    "intersect": "clopen.intersect",
    "difference": "clopen.difference",
    "complement": "clopen.complement",
    "is_subset": "clopen.is_subset",
    "measure": "clopen.measure",
    "compare_clopen": "backends.compare_clopen",
    "exact_swap_involution": "transfers.exact_swap_involution",
    "gw_intertwining": "transfers.gw_intertwining",
    "random_element": "randomize.random_element",
    "compose": "elements.compose",
    "inverse": "elements.inverse",
    "equals": "elements.equals",
    "conjugate": "elements.conjugate",
    "support": "elements.support",
    "image_of_clopen": "elements.image_of_clopen",
    "commutator": "elements.commutator",
    "parse_element": "encoding.parse_element",
    "commutator_in_normal_closure": "certificates.commutator_in_normal_closure",
    "dump_certificate": "certificates.dump_certificate",
    "load_certificate": "certificates.load_certificate",
    "verify_certificate": "certificates.verify_certificate",
}


def _words_out(args, result):
    return [("clopen.words_out", len(result.words))]


def _operand_pieces(args, result):
    return [("elements.pieces", len(f.pieces)) for f in args]


# span name -> (size name, value) pairs recorded from the call's
# arguments and result when its span closes
SIZE_HOOKS = {
    "clopen.from_words": lambda a, r: [("clopen.words_in", len(a[1])),
                                       ("clopen.words_out", len(r.words))],
    "clopen.union": _words_out,
    "clopen.intersect": _words_out,
    "clopen.difference": _words_out,
    "clopen.complement": _words_out,
    "backends.compare_clopen": lambda a, r: [("backends.witness_pieces", len(r.pieces))],
    "elements.compose": _operand_pieces,
    "elements.inverse": _operand_pieces,
    "elements.conjugate": _operand_pieces,
    "certificates.commutator_in_normal_closure": lambda a, r: [
        ("certificates.factors", len(r.factors)),
        ("certificates.tokens", sum(len(f.conjugator.tokens) for f in r.factors)),
        ("certificates.env_elements", len(a[3].names()))],
}

# layer calls reported on every workload, and the ones that only
# `certify` makes, which are reported once per family
CALLS = [
    "clopen.from_words", "clopen.union", "clopen.intersect", "clopen.difference",
    "clopen.complement", "clopen.is_subset", "clopen.measure",
    "backends.compare_clopen",
    "transfers.exact_swap_involution", "transfers.gw_intertwining",
    "randomize.random_element",
    "elements.compose", "elements.inverse", "elements.equals", "elements.conjugate",
    "elements.support", "elements.image_of_clopen",
]
SIZES = ["clopen.words_in", "clopen.words_out", "backends.witness_pieces",
         "elements.pieces"]
FAMILIES = ["odo", "shift"]
FAMILY_CALLS = [
    "encoding.parse_element", "elements.commutator",
    "certificates.commutator_in_normal_closure", "certificates.dump_certificate",
    "certificates.load_certificate", "certificates.verify_certificate",
]
FAMILY_SIZES = ["certificates.factors", "certificates.tokens",
                "certificates.env_elements"]


def per_layer_catalog() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in output order."""
    out: list[tuple[str, str]] = []

    def calls(name):
        out.extend([(f"{name}.calls", "count"), (f"{name}.busy_s", "s"),
                    (f"{name}.p50_us", "us")])

    for name in CALLS:
        calls(name)
    out.extend((f"{name}.mean", "count") for name in SIZES)
    for fam in FAMILIES:
        for name in FAMILY_CALLS:
            calls(f"{fam}.{name}")
        out.extend((f"{fam}.{name}.mean", "count") for name in FAMILY_SIZES)
    out.extend([("bench.task.self_s", "s"), ("bench.trace_overhead", "ratio")])
    return out


class Tracer:
    """Spans as rows (name, start, end, parent, task); the task span is
    the parent of its call spans.  Durations are host seconds; each
    task row also keeps the host-to-reference factor it was timed with,
    and derived metrics are in reference seconds."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.factors: dict[int, float] = {}
        self.sizes: dict[str, list[int]] = {}
        self._task = -1
        self._task_row = -1
        self._prefix = ""

    def begin_task(self, task_id: int, family: str | None) -> None:
        self._task = task_id
        self._prefix = f"{family}." if family else ""
        self._task_row = len(self.spans)
        self.spans.append(("bench.task", time.perf_counter(), 0.0, -1, task_id))

    def end_task(self, end: float, factor: float) -> None:
        name, start, _, parent, task = self.spans[self._task_row]
        self.spans[self._task_row] = (name, start, end, parent, task)
        self.factors[self._task_row] = factor

    def wrap(self, lib: SimpleNamespace) -> SimpleNamespace:
        """A copy of `lib` whose listed functions record a span per call."""
        traced = SimpleNamespace(**vars(lib))
        for attr, name in SPAN_NAMES.items():
            setattr(traced, attr, self._spanned(name, getattr(lib, attr)))
        return traced

    def _spanned(self, name, fn):
        hook = SIZE_HOOKS.get(name)

        def call(*args):
            start = time.perf_counter()
            result = fn(*args)
            end = time.perf_counter()
            self.spans.append((self._prefix + name, start, end, self._task_row, self._task))
            if hook is not None:
                for key, value in hook(args, result):
                    self.sizes.setdefault(self._prefix + key, []).append(value)
            return result

        return call

    def per_layer(self, overhead: float) -> dict[str, float]:
        durations: dict[str, list[float]] = {}
        child_s = 0.0
        task_s = 0.0
        for row, (name, start, end, parent, _) in enumerate(self.spans):
            if parent < 0:
                task_s += (end - start) * self.factors[row]
            else:
                scaled = (end - start) * self.factors[parent]
                child_s += scaled
                durations.setdefault(name, []).append(scaled)
        values: dict[str, float] = {}
        for metric, _unit in per_layer_catalog():
            stem, _, kind = metric.rpartition(".")
            ds = durations.get(stem, [])
            if kind == "calls":
                values[metric] = len(ds)
            elif kind == "busy_s":
                values[metric] = sum(ds)
            elif kind == "p50_us":
                values[metric] = statistics.median(ds) * 1e6 if ds else 0.0
            elif kind == "mean":
                xs = self.sizes.get(stem, [])
                values[metric] = statistics.fmean(xs) if xs else 0.0
        values["bench.task.self_s"] = task_s - child_s
        values["bench.trace_overhead"] = overhead
        return values

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "task")
        with open(path, "w", encoding="utf-8") as fh:
            for index, row in enumerate(self.spans):
                span = dict(zip(keys, row))
                if index in self.factors:
                    span["factor"] = self.factors[index]
                fh.write(json.dumps(span) + "\n")
