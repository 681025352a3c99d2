"""In-process spans around germinv's public functions.

Spans carry a name, a start, an end and the id of the span that was open
when they began; they are kept in memory and written out when the process
ends. Counts are taken at the same boundaries, from the arguments and
results of the wrapped calls, so nothing inside the package changes.

A function is wrapped wherever it is looked up: `cli` binds `full_report`
and `load_germ_file` by name and `invariants` binds `kernel_fields`,
`tangent_fields` and `parameter_part` by name, so every germinv module that
holds the original object gets the wrapper.

Run as a script, it is a traced stand-in for the `germinv` command:

    PYTHONPATH=src python3 bench/tracing.py SPANS.json report --format machine FILE

prints exactly what `germinv report ... FILE` prints, exits with its code,
and writes the spans and counts to SPANS.json.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def _cache_hit(counts: Counter, args, kwargs, result) -> None:
    cached = kwargs.get("cached_factors", args[2] if len(args) > 2 else None)
    if cached is not None:
        counts["cli.cache.hits"] += 1


def _profile_steps(counts: Counter, args, kwargs, result) -> None:
    counts["invariants.samuel_profile.steps"] += len(result.profile)


def _slice_samples(counts: Counter, args, kwargs, result) -> None:
    pinned = kwargs.get("s0", args[1] if len(args) > 1 else None) is not None
    drawn = len(result.rejected) + (1 if pinned else 2)
    counts["invariants.slice.samples"] += drawn
    counts["invariants.slice.accepted"] += drawn - len(result.rejected)


def _size(name: str) -> Callable:
    def count(counts: Counter, args, kwargs, result) -> None:
        elements = getattr(result, "elements", result)
        counts[name] += len(elements)
    return count


# (span name, module, attribute path, count hook, whether it opens a span)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], bool], ...] = (
    ("cli.console_main", "cli", "console_main", None, True),
    ("germfile.load_germ_file", "germfile", "load_germ_file", None, True),
    ("invariants.full_report", "invariants", "full_report", None, True),
    ("invariants.image_equation", "invariants", "image_equation", _cache_hit, True),
    ("invariants.ft_codim", "invariants", "ft_codim", None, True),
    ("invariants.ft_dimension", "invariants", "ft_dimension", None, True),
    ("invariants.image_milnor_number", "invariants", "image_milnor_number", None, True),
    ("invariants.samuel_multiplicity", "invariants", "samuel_multiplicity",
     _profile_steps, False),
    ("invariants.slice_milnor_total", "invariants", "slice_milnor_total",
     _slice_samples, True),
    ("invariants.bruce_roberts_number", "invariants", "bruce_roberts_number", None, True),
    ("invariants.ae_codimension", "invariants", "ae_codimension", None, True),
    ("invariants.euler_ideal_identity", "invariants", "euler_ideal_identity", None, True),
    ("invariants.lc_ideal", "invariants", "lc_ideal", None, True),
    ("invariants.LCIdeal.substitution_identity", "invariants",
     "LCIdeal.substitution_identity", None, True),
    ("invariants.LCIdeal.certified_dimension", "invariants",
     "LCIdeal.certified_dimension", None, True),
    ("syzygy.kernel_fields", "syzygy", "kernel_fields",
     _size("syzygy.kernel_fields.size"), True),
    ("syzygy.tangent_fields", "syzygy", "tangent_fields",
     _size("syzygy.tangent_fields.size"), True),
    ("syzygy.parameter_part", "syzygy", "parameter_part", None, True),
    ("gb.Ideal.basis", "gb", "Ideal.basis", _size("gb.Ideal.basis.size"), True),
    ("gb.Ideal.elimination", "gb", "Ideal.elimination", None, True),
    ("gb.Ideal.quotient_dimension", "gb", "Ideal.quotient_dimension", None, True),
    ("gb.Ideal.saturation", "gb", "Ideal.saturation", None, True),
    ("gb.Ideal.dimension_bound", "gb", "Ideal.dimension_bound", None, True),
    ("gb.Ideal.contains", "gb", "Ideal.contains", None, True),
)
SPAN_NAMES = tuple(name for name, _, _, _, opens in TARGETS if opens)
COUNT_NAMES = ("cli.cache.hits", "cli.cache.writes", "invariants.samuel_profile.steps",
               "invariants.slice.samples", "invariants.slice.accepted",
               "syzygy.kernel_fields.size", "syzygy.tangent_fields.size",
               "gb.Ideal.basis.size")


class Recorder:
    """Spans and counts of one process, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[dict] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None,
             opens_span: bool = True) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not opens_span:
                result = fn(*args, **kwargs)
            else:
                sid = next(self._ids)
                parent = self._stack[-1] if self._stack else None
                self._stack.append(sid)
                start = self.clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = self.clock()
                    self._stack.pop()
                    self.spans.append({"id": sid, "name": name, "parent": parent,
                                       "start": start, "end": end})
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded germinv module that binds it."""
        importlib.import_module("germinv.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "germinv" or n.startswith("germinv."))]
        for name, module, attr, count, opens in TARGETS:
            owner = importlib.import_module(f"germinv.{module}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), count, opens))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, count, opens)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: Dict[int, List[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children[s["id"]]]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(
            (a, b) for a, b in clipped if b > a)
    return out


def summarize(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time, calls, and inclusive time of the
    outermost spans of that name (a span inside a same-named one is not
    counted twice)."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    for s in spans:
        row = out[s["name"]]
        row["self_s"] += own[s["id"]]
        row["calls"] += 1
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            row["total_s"] += s["end"] - s["start"]
    return dict(out)


def _sidecar_stamp(path: str) -> Optional[int]:
    try:
        return os.stat(path).st_mtime_ns
    except FileNotFoundError:
        return None


def main(argv: List[str]) -> int:
    spans_path, germinv_argv = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    sidecar = germinv_argv[-1] + ".gcache"
    before = _sidecar_stamp(sidecar)
    cli = importlib.import_module("germinv.cli")
    try:
        code = cli.console_main(germinv_argv)
    finally:
        after = _sidecar_stamp(sidecar)
        if after is not None and after != before:
            recorder.counts["cli.cache.writes"] += 1
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "counts": recorder.counts}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
