"""Tests of the benchmark's own code: `python3 -m pytest bench` from the root."""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import families
import tracing
from gate import Case, check

ROOT = Path(__file__).resolve().parent.parent


def test_generator_is_deterministic_per_seed():
    assert families.generate(7) == families.generate(7)
    assert families.generate(7) != families.generate(8)


def test_generator_pairs_every_skewed_germ_with_its_plain_twin():
    germs = families.generate(3)
    names = {g.name for g in germs}
    skewed = [g for g in germs if g.twin is not None]
    assert len(skewed) * 2 == len(germs)
    for g in skewed:
        assert g.twin in names and "weights" not in g.text
    assert all("weights" in g.text for g in germs if g.twin is None)


def test_unimodular_changes_have_determinant_one():
    rng = random.Random(0)
    for _ in range(20):
        (a, b, c), (d, e, f), (g, h, i) = families.unimodular(rng, 3)
        assert a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) == 1


def _ticking_clock():
    ticks = iter(range(100))
    return lambda: float(next(ticks))


def test_self_time_subtracts_nested_children():
    rec = tracing.Recorder(clock=_ticking_clock())
    leaf = rec.wrap("leaf", lambda: None)
    mid = rec.wrap("mid", lambda: leaf())
    root = rec.wrap("root", lambda: (mid(), leaf()))
    root()
    # clock: root 0, mid 1, leaf 2-3, mid ends 4, leaf 5-6, root ends 7
    by_name = {s["name"]: s for s in rec.spans if s["name"] != "leaf"}
    assert by_name["mid"]["parent"] == by_name["root"]["id"]
    summary = tracing.summarize(rec.spans)
    assert summary["root"] == {"self_s": 7 - 3 - 1, "total_s": 7, "calls": 1}
    assert summary["mid"] == {"self_s": 3 - 1, "total_s": 3, "calls": 1}
    assert summary["leaf"] == {"self_s": 2, "total_s": 2, "calls": 2}


def test_self_time_counts_overlapping_children_once():
    spans = [{"id": 0, "name": "p", "parent": None, "start": 0.0, "end": 10.0},
             {"id": 1, "name": "c", "parent": 0, "start": 1.0, "end": 5.0},
             {"id": 2, "name": "c", "parent": 0, "start": 4.0, "end": 12.0}]
    assert tracing.self_times(spans)[0] == 1.0


def test_same_named_nested_spans_count_inclusive_time_once():
    rec = tracing.Recorder(clock=_ticking_clock())
    inner = rec.wrap("f", lambda: None)
    outer = rec.wrap("f", lambda: inner())
    outer()
    assert tracing.summarize(rec.spans)["f"] == {"self_s": 3, "total_s": 3, "calls": 2}


REPORT = """schema=germinv.report.v1
mu_image=3
mu_image_oracle=3
oracle_s0={s0}
ae_codim=3
route_disagreement=false
warnings=0
"""


def _case(**kw):
    base = dict(name="g", path="g.germ", args=(), expect_exit=0, mu_image=3,
                ae_codim=3)
    base.update(kw)
    return Case(**base)


def test_gate_passes_a_correct_report():
    out = REPORT.format(s0="1/2")
    assert check(_case(), 0, out, REPORT.format(s0="3/7"), out) == []


def test_gate_flags_a_golden_value_off_by_one():
    reasons = check(_case(mu_image=4), 0, REPORT.format(s0="1/2"))
    assert reasons == ["mu_image=3, literature 4"]


def test_gate_flags_route_exit_twin_and_determinism_misses():
    out = REPORT.format(s0="1/2")
    assert check(_case(), 3, out) == ["exit 3, expected 0"]
    broken = out.replace("mu_image_oracle=3", "mu_image_oracle=2")
    assert "mu_image=3 but mu_image_oracle=2" in check(_case(), 0, broken)
    twin = out.replace("ae_codim=3", "ae_codim=2")
    assert any("ae_codim" in r for r in check(_case(), 0, out, twin_stdout=twin))
    assert check(_case(), 0, out, earlier_stdout=out + "x") == \
        ["stdout differs from an earlier pass"]


def test_traced_cli_prints_what_the_plain_cli_prints(tmp_path):
    germ = tmp_path / "s1.germ"
    shutil.copyfile(ROOT / "corpus" / "s1.germ", germ)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["report", "--format", "machine", "--with-lc", str(germ)]
    spans = tmp_path / "spans.json"

    def traced():
        out = subprocess.run([sys.executable, str(ROOT / "bench" / "tracing.py"),
                              str(spans)] + argv,
                             capture_output=True, text=True, env=env, timeout=120)
        return out, json.loads(spans.read_text())

    plain = subprocess.run([sys.executable, "-m", "germinv.cli"] + argv,
                           capture_output=True, text=True, env=env, timeout=120)
    warm, dump = traced()
    assert plain.returncode == warm.returncode == 0
    assert plain.stdout == warm.stdout
    names = {s["name"] for s in dump["spans"]}
    assert {"cli.console_main", "invariants.full_report", "syzygy.kernel_fields",
            "gb.Ideal.basis", "germfile.load_germ_file"} <= names
    assert dump["counts"]["cli.cache.hits"] == 1
    assert dump["counts"]["invariants.samuel_profile.steps"] == 3

    os.remove(str(germ) + ".gcache")
    cold, dump = traced()
    assert cold.stdout == plain.stdout
    assert dump["counts"]["cli.cache.writes"] == 1
    assert "cli.cache.hits" not in dump["counts"]
