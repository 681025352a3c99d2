"""germinv benchmark: one closed-loop client, one germ process at a time.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each workload is a list of germ files that
`germinv report --format machine` reads from a scratch directory under
`.bench_work/`; a pass runs them in order, each after the last has exited,
and passes repeat until `--seconds` have elapsed (at least one pass). Every
run is checked by the gate in `gate.py`; failures are printed with their
reasons and counted.

Workloads:

* corpus     every germ of `corpus/`, copied, with `--no-cache`, and every
             germ but exam1 once more with `--with-lc` (exam1 with it takes
             minutes). Each run but exam1 repeats QUICK_REPEATS times a pass.
             The seed does not change this workload.
* skew-warm  the seeded families of `families.py` with `--with-lc` and
             sidecars written before timing starts, so each run reads the
             cache that corpus bypasses.

A third workload, the same families with no sidecar, ran passes of about
7 s. On a 2-core VM whose speed drifts by about 20% over tens of seconds,
runs that short spread past their bound, and the time budget for a full set
of runs has room for longer runs of two workloads only.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
passes with passes under `tracing.py` and prints the per-layer metrics. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import families  # noqa: E402
import tracing  # noqa: E402
from gate import Case, check  # noqa: E402

WORKLOADS = ("corpus", "skew-warm")
SETUP_REPEATS = 7
SETUP_SNIPPET = ("import sys, germinv, germinv.cli\n"
                 "from germinv.germfile import load_germ_file\n"
                 "for path in sys.argv[1:]:\n"
                 "    load_germ_file(path)\n")
# corpus germ -> (exit code, mu_image, ae_codim). Cross-cap and the two
# transverse planes are stable (0, 0); s1 is Mond's S_1 (1, 1); exam1 is the
# paper's non-quasi-homogeneous example with mu_I = 7; nonfinite parametrizes
# the twisted cubic, whose image is no hypersurface.
CORPUS = {
    "crosscap": (0, 0, 0),
    "exam1": (0, 7, None),
    "nonfinite": (1, None, None),
    "s1": (0, 1, 1),
    "twoplane": (0, 0, 0),
}
CORPUS_WITHOUT_LC = {"exam1"}
QUICK_REPEATS = 3


@dataclass
class GermRun:
    exit_code: int
    stdout: str
    stderr: str
    seconds: float
    max_rss_kb: int


@dataclass
class Pass:
    wall_s: float = 0.0
    runs: Dict[str, GermRun] = field(default_factory=dict)
    traces: List[dict] = field(default_factory=list)


class Bench:
    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.root = root
        self.work = work
        self.workload = workload
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        self.env = env
        self.cases = self._build(seed)
        self.first_stdout: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []

    # -- workload ---------------------------------------------------------

    def _build(self, seed: int) -> List[Case]:
        germ_dir = self.work / "germs"
        germ_dir.mkdir()
        cases = []
        if self.workload == "corpus":
            for name, (code, mu, ae) in CORPUS.items():
                path = germ_dir / f"{name}.germ"
                shutil.copyfile(self.root / "corpus" / f"{name}.germ", path)
                cases.append(Case(name, str(path), ("--no-cache",), code, mu, ae))
            cases += [Case(f"{c.name}+lc", c.path, c.args + ("--with-lc",),
                           c.expect_exit, c.mu_image, c.ae_codim)
                      for c in list(cases) if c.name not in CORPUS_WITHOUT_LC]
            # exam1 takes about a minute, every other run about 0.2 s. The quick
            # runs repeat, half of them before exam1 and half after, so
            # germ_s.p50 rests on 24 quick runs from both ends of the pass, not
            # on 8 from one 2-second stretch of a host whose speed drifts.
            quick = [replace(c, name=f"{c.name}#{i}") for i in range(QUICK_REPEATS)
                     for c in cases if c.name != "exam1"]
            half = len(quick) // 2
            return quick[:half] + [c for c in cases if c.name == "exam1"] + quick[half:]
        for g in families.generate(seed):
            path = germ_dir / f"{g.name}.germ"
            path.write_text(g.text, encoding="utf-8")
            cases.append(Case(g.name, str(path), ("--with-lc",), 0,
                              g.mu_image, g.ae_codim, g.twin))
        return cases

    def prepare(self) -> None:
        """Untimed: compile the package once, and for skew-warm write every
        sidecar through the program itself."""
        self._spawn([sys.executable, "-c", SETUP_SNIPPET])
        if self.workload != "skew-warm":
            return
        for case in self.cases:
            run = self._spawn([sys.executable, "-m", "germinv.cli", "image",
                               "--format", "machine", case.path])
            if run.exit_code != 0 or not os.path.exists(case.path + ".gcache"):
                raise RuntimeError(f"could not write the sidecar of {case.name}: "
                                   f"{run.stderr.strip()}")

    # -- processes --------------------------------------------------------

    def _spawn(self, cmd: List[str]) -> GermRun:
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return GermRun(proc.returncode, out.read().decode(), err.read().decode(),
                           seconds, usage.ru_maxrss)

    def setup_seconds(self) -> List[float]:
        files = sorted({c.path for c in self.cases})
        cmd = [sys.executable, "-c", SETUP_SNIPPET] + files
        times = []
        for _ in range(SETUP_REPEATS):
            run = self._spawn(cmd)
            if run.exit_code != 0:
                raise RuntimeError(f"set-up failed: {run.stderr.strip()}")
            times.append(run.seconds)
        return times

    def run_pass(self, traced: bool) -> Pass:
        result = Pass()
        spans_path = str(self.work / "spans.json")
        start = time.perf_counter()
        for case in self.cases:
            argv = ["report", "--format", "machine", *case.args, case.path]
            if traced:
                cmd = [sys.executable, str(BENCH / "tracing.py"), spans_path] + argv
            else:
                cmd = [sys.executable, "-m", "germinv.cli"] + argv
            result.runs[case.name] = self._spawn(cmd)
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    result.traces.append(json.load(fh))
        result.wall_s = time.perf_counter() - start
        self._gate(result)
        return result

    def _gate(self, p: Pass) -> None:
        for case in self.cases:
            run = p.runs[case.name]
            twin = p.runs[case.twin].stdout if case.twin else None
            reasons = check(case, run.exit_code, run.stdout, twin,
                            self.first_stdout.get(case.name))
            self.first_stdout.setdefault(case.name, run.stdout)
            self.attempted += 1
            if reasons:
                self.failures.append(f"{case.name}: " + "; ".join(reasons))


# -- metrics ----------------------------------------------------------------

E2E_UNITS = {"wall_s": "s", "germ_s.max": "s", "germ_s.p50": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


def end_to_end(passes: List[Pass], setup: List[float]) -> Dict[str, float]:
    """Pass totals are medians over the passes. germ_s.max and germ_s.p50
    take each germ's median over the passes first, so one slow process sets
    neither. Half the skew germs are plain twins, faster than the rest, so
    the median germ lies between two groups: a median of every run pooled
    would be the slowest plain run or the fastest other one, an extreme."""
    runs = [r for p in passes for r in p.runs.values()]
    per_germ = [statistics.median(p.runs[name].seconds for p in passes)
                for name in passes[0].runs]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "germ_s.max": max(per_germ),
        "germ_s.p50": statistics.median(per_germ),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.max_rss_kb for r in runs) / 1024.0,
    }


def layer_metrics(traced: List[Pass], plain: List[Pass]) -> Dict[str, tuple]:
    """Per-layer metrics, the median over traced passes, with units."""
    rows: List[Dict[str, float]] = []
    for p in traced:
        counts: Dict[str, int] = dict.fromkeys(tracing.COUNT_NAMES, 0)
        for t in p.traces:
            for k, v in t["counts"].items():
                counts[k] += v
        # span ids restart in every germ process: make them unique per pass
        offset_spans = []
        for i, t in enumerate(p.traces):
            for s in t["spans"]:
                offset_spans.append(dict(s, id=(i, s["id"]),
                                         parent=None if s["parent"] is None
                                         else (i, s["parent"])))
        summary = tracing.summarize(offset_spans)
        row: Dict[str, float] = {}
        for name in tracing.SPAN_NAMES:
            got = summary.get(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row[f"{name}.self_s"] = got["self_s"]
            row[f"{name}.total_s"] = got["total_s"]
            row[f"{name}.calls"] = got["calls"]
        row.update(counts)
        samples = counts["invariants.slice.samples"]
        row["invariants.slice.accept_ratio"] = (
            counts["invariants.slice.accepted"] / samples if samples else 0.0)
        rows.append(row)
    out: Dict[str, tuple] = {}
    for key in rows[0]:
        value = statistics.median(r[key] for r in rows)
        unit = "s" if key.endswith("_s") else "ratio" if key.endswith("ratio") \
            else "count"
        out[key] = (value, unit)
    overhead = (statistics.median(p.wall_s for p in traced)
                / statistics.median(p.wall_s for p in plain))
    out["trace.overhead"] = (overhead, "ratio")
    return out


# -- driver -----------------------------------------------------------------

def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        bench = Bench(root, work, workload, seed)
        bench.prepare()
        setup = [] if trace else bench.setup_seconds()
        plain: List[Pass] = []
        traced: List[Pass] = []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            plain.append(bench.run_pass(traced=False))
            if trace:
                traced.append(bench.run_pass(traced=True))
        if not trace:
            # set-up is timed before and after the passes, so its median spans
            # the run rather than one second of a host whose speed drifts
            setup += bench.setup_seconds()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for reason in bench.failures:
        print(f"FAIL {reason}")
    failed = len(bench.failures)
    print(f"workload {workload}: seed {seed}, {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(bench.cases)} germ runs, "
          "one germ process at a time")
    print(f"fail_frac = {failed}/{bench.attempted} germ runs")
    if trace:
        metrics = layer_metrics(traced, plain)
        base = statistics.median(p.wall_s for p in plain)
        print(f"trace.overhead base: untraced pass {base:.3f} s")
        print(f"invariants.slice.accept_ratio base: "
              f"{metrics['invariants.slice.samples'][0]} samples drawn")
    else:
        metrics = {k: (v, E2E_UNITS[k])
                   for k, v in end_to_end(plain, setup).items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    return {"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("src/germinv/cli.py", "corpus") if not (root / p).exists()]
    if missing:
        print(f"error: run from the root of a germinv checkout; missing {missing}",
              file=sys.stderr)
        return 2
    result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
