import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from germinv import InvariantReport
from germinv.cli import _label, console_main

from conftest import corpus_path


def run(capsys, *argv):
    code = console_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_dict(out):
    lines = out.splitlines()
    assert lines and lines[0].startswith("schema="), "schema line must come first"
    return dict(line.split("=", 1) for line in lines)


@pytest.fixture
def tmp_corpus(tmp_path):
    def copy(name):
        dst = tmp_path / f"{name}.germ"
        shutil.copy(corpus_path(name), dst)
        return str(dst)
    return copy


# -- single-invariant commands ---------------------------------------------------

def test_mu_image_on_a_stable_germ(capsys):
    code, out, _ = run(capsys, "mu-image", corpus_path("crosscap"),
                       "--no-cache", "--format", "machine")
    assert code == 0
    assert out == ("schema=germinv.mu-image.v1\n"
                   "mu_image=0\n"
                   "samuel_profile=0,0,0\n"
                   "stability=stable\n"
                   "warnings=0\n")


def test_image_lists_multigerm_factors(capsys):
    code, out, _ = run(capsys, "image", corpus_path("twoplane"),
                       "--no-cache", "--format", "machine")
    d = machine_dict(out)
    assert code == 0
    assert d["provenance"] == "eliminated"
    assert d["g"] == "y2*y3"
    assert {d["factor_1"], d["factor_2"]} == {"y2", "y3"}


def test_ft_command(capsys):
    code, out, _ = run(capsys, "ft", corpus_path("s1"),
                       "--no-cache", "--format", "machine")
    d = machine_dict(out)
    assert code == 0
    assert d["ft_codim"] == "1" and d["ft_dim"] == "1"
    assert "gen_1" in d


def test_ae_codim_and_its_gate(capsys):
    code, out, _ = run(capsys, "ae-codim", corpus_path("crosscap"),
                       "--no-cache", "--format", "machine")
    assert code == 0 and machine_dict(out)["ae_codim"] == "0"
    code, _, err = run(capsys, "ae-codim", corpus_path("exam1"),
                       "--no-cache", "--format", "machine")
    assert code == 1 and "is_stable_unfolding" in err


def test_lc_check(capsys):
    code, out, _ = run(capsys, "lc-check", corpus_path("s1"),
                       "--no-cache", "--format", "machine")
    d = machine_dict(out)
    assert code == 0
    assert d["lc_substitution"] == "true"
    assert d["lc_dim"] == "5" == d["lc_dim_expected"]


def test_milnor_command(capsys):
    code, out, _ = run(capsys, "milnor", "x^4 + y^2", "--vars", "x,y",
                       "--format", "machine")
    assert code == 0 and machine_dict(out)["milnor"] == "3"
    code, out, _ = run(capsys, "milnor", "x^2*y^2", "--vars", "x,y",
                       "--format", "machine")
    assert code == 0 and machine_dict(out)["milnor"] == "infinite"


# -- the full report ---------------------------------------------------------------

def test_report_machine_keys_and_values(capsys, tmp_corpus):
    code, out, _ = run(capsys, "report", tmp_corpus("s1"),
                       "--s0", "1/3", "--format", "machine")
    assert code == 0
    d = machine_dict(out)
    assert d["mu_image"] == "1" == d["mu_image_oracle"]
    assert d["oracle_s0"] == "1/3"
    assert d["ft_codim"] == "1" and d["ft_dim"] == "1"
    assert d["mu_br"] == "1"
    assert d["cm_flag"] == "true"
    assert d["stability"] == "unstable"
    assert d["ae_codim"] == "1"
    assert d["samuel_profile"] == "1,2,3"
    assert d["route_disagreement"] == "false"
    assert d["warnings"] == "0"
    assert "lc_dim" not in d          # only present under --with-lc


def test_report_rows_are_the_report_record_in_order(capsys, tmp_corpus):
    # schema v1 fixes the row order; the rows are the record's fields
    path = tmp_corpus("s1")
    rows = ["mu_image", "mu_image_oracle", "oracle_s0", "ft_codim", "ft_dim",
            "mu_br", "cm_flag", "stability", "ae_codim", "samuel_profile"]
    for extra, lc in (((), []), (("--with-lc",), ["lc_dim"])):
        code, out, _ = run(capsys, "report", path, *extra, "--format", "machine")
        keys = [line.split("=", 1)[0] for line in out.splitlines()]
        assert code == 0
        assert keys == ["schema", *rows, *lc, "route_disagreement", "warnings"]
        assert keys[1:-1] == [f for f in InvariantReport._fields
                              if f != "warnings" and (f != "lc_dim" or lc)]


def test_report_with_lc_adds_the_dimension(capsys, tmp_corpus):
    code, out, _ = run(capsys, "report", tmp_corpus("s1"),
                       "--with-lc", "--format", "machine")
    assert code == 0 and machine_dict(out)["lc_dim"] == "5"


def test_report_human_format(capsys, tmp_corpus):
    code, out, _ = run(capsys, "report", tmp_corpus("crosscap"))
    assert code == 0
    assert "stability" in out and "stable" in out
    assert "=" not in out.splitlines()[0]   # aligned table, not key=value


def test_report_same_seed_is_byte_identical(capsys, tmp_corpus):
    path = tmp_corpus("s1")
    argv = ("report", path, "--seed", "7", "--format", "machine")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_moves_the_sample_point(capsys, tmp_corpus):
    path = tmp_corpus("s1")
    values = {}
    for seed in ("1", "2"):
        code, out, _ = run(capsys, "report", path, "--seed", seed,
                           "--format", "machine")
        assert code == 0
        d = machine_dict(out)
        assert d["mu_image_oracle"] == "1"
        values[seed] = Fraction(d["oracle_s0"])
    assert values["1"] != values["2"] and all(v != 0 for v in values.values())


def test_route_disagreement_exits_3(capsys, tmp_corpus, monkeypatch):
    # force the slice oracle to lie; the report must flag it and exit 3
    import germinv.invariants as inv
    real = inv.slice_milnor_total

    def lying_oracle(G, s0=None):
        r = real(G, s0=s0)
        return inv.SliceResult(r.total + 41, r.s0, r.raw, r.baseline, r.rejected)

    monkeypatch.setattr(inv, "slice_milnor_total", lying_oracle)
    code, out, _ = run(capsys, "report", tmp_corpus("s1"),
                       "--format", "machine")
    assert code == 3
    d = machine_dict(out)
    assert d["route_disagreement"] == "true"
    assert d["mu_image_oracle"] == "42" and d["mu_image"] == "1"
    assert int(d["warnings"]) >= 1 and "does not match" in out


def test_wrong_ft_quotient_exits_3(capsys, tmp_corpus, monkeypatch):
    # the lc check holds the quotient route to the FT ideal against the
    # parameter slots of the kernel fields. Scaling s by 2 in both quotients
    # leaves every count alone, so only that check can see it
    import germinv.invariants as inv
    real = inv.ideal_quotient

    def scaled_quotient(gens, f, config):
        q = real(gens, f, config)
        pidx = q.ctx.parameter_index()
        scaled = [inv.Polynomial(q.ctx, {e: c * 2 ** e[pidx] for e, c in p.terms.items()})
                  for p in q.basis()]
        return inv.Ideal(q.ctx, scaled, q.config)

    monkeypatch.setattr(inv, "ideal_quotient", scaled_quotient)
    code, out, _ = run(capsys, "report", tmp_corpus("s1"), "--format", "machine",
                       "--with-lc", "--s0", "1/3")
    assert code == 3
    d = machine_dict(out)
    assert d["route_disagreement"] == "true"
    assert d["mu_image"] == d["mu_image_oracle"] == d["ae_codim"] == "1"
    assert d["warnings"] == "1"
    assert d["warning_1"] == "cotangent substitution did not recover the FT generators"
    code, out, _ = run(capsys, "lc-check", tmp_corpus("s1"), "--format", "machine")
    assert machine_dict(out)["lc_substitution"] == "false"


def test_mond_inequality_violation_exits_3(capsys, tmp_corpus, monkeypatch):
    # Ae-codim <= mu_I is proven for n <= 2; an Ae-codimension above mu_I
    # must be flagged as a disagreement, never printed as a finding
    import germinv.invariants as inv
    real = inv.ae_codimension
    monkeypatch.setattr(inv, "ae_codimension", lambda G: real(G) + 1)
    code, out, _ = run(capsys, "report", tmp_corpus("s1"), "--format", "machine")
    assert code == 3
    d = machine_dict(out)
    assert d["route_disagreement"] == "true"
    assert d["ae_codim"] == "2" and d["mu_image"] == "1"
    assert "against Mond's inequality" in out


# -- one set of rows, two formats ---------------------------------------------------

def machine_rows(out):
    lines = out.splitlines()
    count = lines.index("warnings=0")
    return [tuple(line.split("=", 1)) for line in lines[1:count]]


@pytest.mark.parametrize("argv", [
    ("image",), ("ft",), ("mu-image",), ("mu-br",), ("ae-codim",), ("lc-check",),
    ("report", "--s0", "1/3"), ("report", "--with-lc"),
])
def test_human_table_has_the_machine_rows(capsys, argv):
    path = corpus_path("s1")
    code, machine, _ = run(capsys, *argv, path, "--no-cache", "--format", "machine")
    assert code == 0
    code, human, _ = run(capsys, *argv, path, "--no-cache")
    assert code == 0
    rows = machine_rows(machine)
    labels = [_label(key) for key, _ in rows]
    width = max(map(len, labels))
    table = [(line[:width].rstrip(), line[width + 2:]) for line in human.splitlines()]
    assert table == [(label, value) for label, (_, value) in zip(labels, rows)]
    assert len(set(labels)) == len(labels)


def test_deeply_nested_milnor_argument_exits_1(capsys):
    deep = "(" * 300 + "x^2 + y^2" + ")" * 300
    code, out, err = run(capsys, "milnor", deep, "--vars", "x,y")
    assert code == 1 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: line 1, column ")
    assert line.endswith(": parentheses nested too deeply")


def test_milnor_human_table_has_the_machine_row(capsys):
    argv = ("milnor", "x^2*y^2", "--vars", "x,y")
    _, machine, _ = run(capsys, *argv, "--format", "machine")
    _, human, _ = run(capsys, *argv)
    assert machine_rows(machine) == [("milnor", "infinite")]
    assert human == "Milnor number  infinite\n"


# -- error and limit handling ------------------------------------------------------

def test_nonfinite_germ_exits_1(capsys):
    code, _, err = run(capsys, "mu-image", corpus_path("nonfinite"),
                       "--no-cache")
    assert code == 1
    assert "elimination ideal not principal" in err


def test_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "report", str(tmp_path / "absent.germ"))
    assert code == 1 and "cannot read" in err


def test_bad_s0_exits_1(capsys, tmp_corpus):
    path = tmp_corpus("s1")
    code, _, err = run(capsys, "report", path, "--s0", "lots")
    assert code == 1 and "--s0 must be a rational" in err
    code, _, err = run(capsys, "report", path, "--s0", "0")
    assert code == 1 and "nonzero" in err


@pytest.mark.parametrize("flags,message", [
    (("--bogus",), "unrecognized arguments: --bogus"),
    (("--format", "xml"), "invalid choice: 'xml'"),
    (("--seed", "abc"), "invalid int value: 'abc'"),
])
def test_usage_errors_exit_1(capsys, tmp_corpus, flags, message):
    # argparse would exit 2, which is the resource-limit code
    code, out, err = run(capsys, "report", *flags, tmp_corpus("s1"))
    assert code == 1 and out == ""
    assert err.startswith("error: germinv") and message in err


@pytest.mark.parametrize("argv, message", [
    (("x^²", "--vars", "x"), "line 1, column 3: unexpected character '²'"),
    (("x^2 + y^2", "--vars", "x,y,1a"), "--vars: bad variable name '1a'"),
])
def test_milnor_bad_input_exits_1(capsys, argv, message):
    code, out, err = run(capsys, "milnor", *argv, "--format", "machine")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        console_main(["report", "--help"])
    assert stop.value.code == 0 and "--with-lc" in capsys.readouterr().out


def test_pair_budget_exits_2(capsys, tmp_path, tmp_corpus):
    limits = tmp_path / "limits.txt"
    limits.write_text("max-pairs 1\n")
    code, _, err = run(capsys, "report", tmp_corpus("s1"), "--no-cache",
                       "--limits", str(limits))
    assert code == 2 and "pair budget" in err


def test_a_worker_budget_error_exits_2(capsys, tmp_path, tmp_corpus):
    # exam1's Bruce-Roberts harvest, computed in the report's forked worker,
    # exhausts the budget that the FT harvest of this process fits in; its
    # error crosses the pipe whole
    limits = tmp_path / "limits.txt"
    limits.write_text("max-pairs 800\n")
    code, out, err = run(capsys, "report", tmp_corpus("exam1"), "--no-cache",
                         "--format", "machine", "--limits", str(limits))
    assert (code, out) == (2, "")
    assert err == ("resource limit: tangent-field ideal: module basis exceeded "
                   "the pair budget max_pairs=800\n")


def test_slice_sampling_out_of_retries_exits_2(capsys, tmp_path, tmp_corpus):
    # one draw has no second one to agree with: the oracle's own budget
    # error, while a pinned s0 draws nothing. A tab separates the limits
    # file's key from its value.
    limits = tmp_path / "limits.txt"
    limits.write_text("retries\t1\n")
    argv = ["report", tmp_corpus("s1"), "--no-cache", "--format", "machine",
            "--limits", str(limits)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("resource limit: no two sampled slice values agreed on a count "
                   "within 1 tries (counts [1], degenerate []); raise the retry budget\n")
    code, out, err = run(capsys, *argv, "--s0", "1/3")
    assert (code, err) == (0, "")
    assert machine_dict(out)["oracle_s0"] == "1/3"


@pytest.mark.parametrize("weights, message", [
    ("y1=1 y2=2 y3=0 s=1", "weights must be positive integers"),
    ("y1=1 y2=2", "weights missing for ['y3', 's']"),
])
def test_bad_weights_exit_1_on_every_command(capsys, tmp_path, weights, message):
    germ = tmp_path / "weighted.germ"
    text = Path(corpus_path("s1")).read_text()
    germ.write_text(text.replace("weights y1=1 y2=2 y3=3 s=2", f"weights {weights}"))
    for command in ("mu-image", "report"):
        code, out, err = run(capsys, command, str(germ), "--no-cache")
        # reported at the weights line, the file's 13th
        assert (code, out, err) == (1, "", f"error: line 13, column 1: {message}\n")


EVERY_FILE_COMMAND = [
    ("image",), ("ft",), ("mu-image",), ("mu-br",), ("ae-codim",), ("lc-check",),
    ("report",), ("report", "--with-lc"),
]
S1_G = "y1^4*y2 + 2*y1^2*y2^2 + 2*y1^2*y2*s + y2^3 + 2*y2^2*s + y2*s^2 - y3^2"


@pytest.mark.parametrize("argv", EVERY_FILE_COMMAND)
@pytest.mark.parametrize("name, drop, image", [
    # (y1 + y2)*g vanishes on the S_1 branch but is not its image equation;
    # taken as one it would double mu_image
    ("s1", "weights y1=1 y2=2 y3=3 s=2\n", f"(y1 + y2)*({S1_G})"),
    # y2 - y1^2 contains the twisted cubic, whose image is no hypersurface
    ("nonfinite", "", "y2 - y1^2"),
])
def test_image_line_is_refused_on_every_command(capsys, tmp_path, argv, name, drop,
                                                 image):
    germ = tmp_path / f"{name}.germ"
    text = Path(corpus_path(name)).read_text().replace(drop, "")
    germ.write_text(text + f"image {image}\n")
    code, out, err = run(capsys, *argv[:1], str(germ), *argv[1:], "--format", "machine")
    lineno = len(text.splitlines()) + 1
    assert (code, out) == (1, "")
    assert err == f"error: line {lineno}, column 1: unknown keyword 'image'\n"
    assert not (tmp_path / f"{name}.germ.gcache").exists()


@pytest.mark.parametrize("argv", EVERY_FILE_COMMAND)
def test_inhomogeneous_weights_stop_every_command_first(capsys, tmp_path, monkeypatch,
                                                        argv):
    # complete positive weights that do not make s1's image equation weighted
    # homogeneous: each command exits 1 before it computes any field or
    # quotient, which would fail the test here
    import germinv.invariants as inv

    def no_work(*args, **kwargs):
        raise AssertionError("computed before the weights were checked")

    monkeypatch.setattr(inv, "ideal_quotient", no_work)
    monkeypatch.setattr(inv, "kernel_fields", no_work)
    germ = tmp_path / "weighted.germ"
    text = Path(corpus_path("s1")).read_text()
    germ.write_text(text.replace("weights y1=1 y2=2 y3=3 s=2", "weights y1=1 y2=1 y3=1 s=1"))
    code, out, err = run(capsys, *argv[:1], str(germ), *argv[1:], "--no-cache")
    assert (code, out) == (1, "")
    assert err == ("error: asserted weights do not make the image equation "
                   "weighted homogeneous\n")


def test_unknown_limit_key_exits_1(capsys, tmp_path, tmp_corpus):
    limits = tmp_path / "limits.txt"
    for key in ("pairs", "jet-bound"):
        limits.write_text(f"{key} 1\n")
        code, _, err = run(capsys, "report", tmp_corpus("s1"),
                           "--limits", str(limits))
        assert code == 1 and f"unknown limit '{key}'" in err


def test_non_positive_limit_exits_1(capsys, tmp_path, tmp_corpus):
    limits = tmp_path / "limits.txt"
    limits.write_text("max-degree -3\n")
    code, out, err = run(capsys, "report", tmp_corpus("crosscap"), "--no-cache",
                         "--limits", str(limits))
    assert code == 1 and out == ""
    assert "'max-degree' needs a positive integer" in err


def test_duplicate_limit_key_exits_1(capsys, tmp_path, tmp_corpus):
    # a limits file is parsed by the germ file's config-line code: a repeated
    # key is refused in both, never silently overridden by the last line
    lines = "max-pairs 1\nmax-pairs 200000\n"
    limits = tmp_path / "limits.txt"
    limits.write_text(lines)
    code, out, err = run(capsys, "report", tmp_corpus("s1"), "--no-cache",
                         "--limits", str(limits))
    assert code == 1 and out == ""
    assert err == "error: line 2, column 1: duplicate 'max-pairs' line\n"
    germ = tmp_path / "twice.germ"
    germ.write_text(Path(corpus_path("s1")).read_text() + lines)   # 13 lines, then these
    code, _, err = run(capsys, "report", str(germ), "--no-cache")
    assert code == 1
    assert err == "error: line 15, column 1: duplicate 'max-pairs' line\n"


def test_non_ascii_limit_digit_exits_1(capsys, tmp_path, tmp_corpus):
    # '\u0663' is an Arabic-Indic three, which int() alone would read as 3
    limits = tmp_path / "limits.txt"
    limits.write_text("max-pairs 1000\nretries \u0663\n", encoding="utf-8")
    code, out, err = run(capsys, "report", tmp_corpus("s1"), "--no-cache",
                         "--limits", str(limits))
    assert (code, out) == (1, "")
    assert err == "error: line 2, column 1: 'retries' needs one integer\n"


@pytest.mark.parametrize("flag", ["file", "--limits"])
def test_non_utf8_input_exits_1(capsys, tmp_path, tmp_corpus, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"max-pairs 7\n\xff\n")
    argv = [str(bad)] if flag == "file" else [tmp_corpus("s1"), "--limits", str(bad)]
    code, out, err = run(capsys, "report", "--no-cache", *argv)
    assert code == 1 and out == ""
    what = "" if flag == "file" else "limits file "
    assert err == f"error: cannot read {what}{bad}: not UTF-8 text\n"


# -- the image-equation cache ------------------------------------------------------

def test_cache_sidecar_round_trip(capsys, tmp_path, tmp_corpus):
    path = tmp_corpus("s1")
    code, out1, _ = run(capsys, "ft", path, "--format", "machine")
    assert code == 0
    sidecar = tmp_path / "s1.germ.gcache"
    text = sidecar.read_text()
    assert text.startswith("germinv.gcache.v1\nkey=")
    assert "factor=" in text
    code, out2, _ = run(capsys, "ft", path, "--format", "machine")
    assert code == 0 and out2 == out1


def test_stale_cache_is_recomputed(capsys, tmp_path, tmp_corpus):
    path = tmp_corpus("s1")
    sidecar = tmp_path / "s1.germ.gcache"
    run(capsys, "ft", path, "--format", "machine")
    good = sidecar.read_text()
    sidecar.write_text(good.replace("key=", "key=dead"))
    code, out, _ = run(capsys, "ft", path, "--format", "machine")
    assert code == 0 and machine_dict(out)["ft_codim"] == "1"
    assert sidecar.read_text() == good    # rewritten with the right key


def test_deeply_nested_sidecar_factor_is_recomputed(capsys, tmp_path, tmp_corpus):
    # a factor too deep to parse makes the sidecar stale, not the run fail
    path = tmp_corpus("s1")
    sidecar = tmp_path / "s1.germ.gcache"
    run(capsys, "ft", path, "--format", "machine")
    good = sidecar.read_text()
    magic, key, factor = good.splitlines()
    factor = factor[len("factor="):]
    sidecar.write_text(f"{magic}\n{key}\nfactor={'(' * 300}{factor}{')' * 300}\n")
    code, out, _ = run(capsys, "ft", path, "--format", "machine")
    assert code == 0 and machine_dict(out)["ft_codim"] == "1"
    assert sidecar.read_text() == good    # rewritten


def test_undecodable_sidecar_is_recomputed(capsys, tmp_path, tmp_corpus):
    path = tmp_corpus("s1")
    sidecar = tmp_path / "s1.germ.gcache"
    run(capsys, "image", path, "--format", "machine")
    good = sidecar.read_text()
    sidecar.write_bytes(b"\xff\xfe" + good.encode())
    code, out, _ = run(capsys, "ft", path, "--format", "machine")
    assert code == 0 and machine_dict(out)["ft_codim"] == "1"
    assert sidecar.read_text() == good    # rewritten


def test_tampered_sidecar_exits_1(capsys, tmp_path, tmp_corpus):
    # y1 times the right factor still vanishes on the branch, but it is not
    # the image equation: every invariant read off it would be wrong
    path = tmp_corpus("s1")
    sidecar = tmp_path / "s1.germ.gcache"
    run(capsys, "image", path, "--format", "machine")
    magic, key, factor = sidecar.read_text().splitlines()
    sidecar.write_text(f"{magic}\n{key}\nfactor=y1*({factor[len('factor='):]})\n")
    code, out, err = run(capsys, "report", path, "--format", "machine")
    assert code == 1 and out == ""
    assert ".gcache sidecar" in err


def test_no_cache_leaves_no_sidecar(capsys, tmp_path, tmp_corpus):
    path = tmp_corpus("crosscap")
    run(capsys, "mu-br", path, "--no-cache", "--format", "machine")
    assert not (tmp_path / "crosscap.germ.gcache").exists()


def _modules_loaded_by(argv):
    # each germ is one process, so its imports are paid on every run:
    # dataclasses pulls in inspect, hashlib loads OpenSSL through _hashlib,
    # and tempfile serves only a sidecar write
    script = ("import sys\n"
              "from germinv.cli import console_main\n"
              f"code = console_main({argv!r})\n"
              "print('loaded=' + ','.join(m for m in ('dataclasses', 'inspect', 'hashlib',"
              " '_hashlib', 'tempfile') if m in sys.modules))\n"
              "raise SystemExit(code)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_a_no_cache_report_loads_no_sidecar_or_record_modules():
    argv = ["report", "--format", "machine", "--no-cache", "--with-lc", corpus_path("s1")]
    assert _modules_loaded_by(argv) == "loaded="


def test_a_sidecar_hit_loads_no_digest_temp_file_or_record_modules(capsys, tmp_path,
                                                                   tmp_corpus):
    path = tmp_corpus("s1")
    run(capsys, "image", path, "--format", "machine")
    sidecar = tmp_path / "s1.germ.gcache"
    written = sidecar.read_bytes()
    # a miss would rewrite the sidecar through tempfile
    assert _modules_loaded_by(["report", "--format", "machine", "--with-lc", path]) \
        == "loaded="
    assert sidecar.read_bytes() == written


def test_parent_format_sidecar_is_rewritten(capsys, tmp_path, tmp_corpus):
    # before the key was the text itself it was its SHA-256: this is s1's
    path = tmp_corpus("s1")
    _, plain, _ = run(capsys, "report", path, "--no-cache", "--format", "machine")
    run(capsys, "image", path, "--format", "machine")
    sidecar = tmp_path / "s1.germ.gcache"
    good = sidecar.read_text()
    magic, key, factor = good.splitlines()
    assert key == ("key=source x y; target y1 y2 y3; parameter s; "
                   "branch; x; y^2; x^2*y + y^3 + y*s; end")
    sidecar.write_text(f"{magic}\nkey=86565977fcf83e9a819a525781c86535f5bff971637a"
                       f"b5efa6589eb54e63a029\n{factor}\n")
    code, out, _ = run(capsys, "report", path, "--format", "machine")
    assert code == 0 and out == plain
    assert sidecar.read_text() == good


def test_equal_factor_in_another_print_is_accepted(capsys, tmp_path, tmp_corpus):
    path = tmp_corpus("s1")
    _, plain, _ = run(capsys, "report", path, "--no-cache", "--format", "machine")
    run(capsys, "image", path, "--format", "machine")
    sidecar = tmp_path / "s1.germ.gcache"
    magic, key, _ = sidecar.read_text().splitlines()
    reordered = ("factor=-y3^2 + y2*s^2 + 2*y2^2*s + y2^3 + 2*y1^2*y2*s"
                 " + 2*y1^2*y2^2 + y1^4*y2")
    sidecar.write_text(f"{magic}\n{key}\n{reordered}\n")
    written = sidecar.read_bytes()
    code, out, _ = run(capsys, "report", path, "--format", "machine")
    assert code == 0 and out == plain
    assert sidecar.read_bytes() == written     # a hit: not rewritten


def test_a_sidecar_hit_parses_no_factor_line(capsys, monkeypatch, tmp_path, tmp_corpus):
    import germinv.cli
    import germinv.exprparse
    import germinv.germfile
    import germinv.invariants
    path = tmp_corpus("s1")
    run(capsys, "image", path, "--format", "machine")
    factor = (tmp_path / "s1.germ.gcache").read_text().splitlines()[2][len("factor="):]
    parsed, cached = [], []
    parse, image = germinv.exprparse.parse_polynomial, germinv.cli.image_equation

    def recording_parse(text, ctx):
        parsed.append(text)
        return parse(text, ctx)

    def recording_image(*args, **kwargs):
        cached.append(kwargs.get("cached_factors"))
        return image(*args, **kwargs)

    for module in (germinv.cli, germinv.exprparse, germinv.germfile, germinv.invariants):
        monkeypatch.setattr(module, "parse_polynomial", recording_parse)
    monkeypatch.setattr(germinv.cli, "image_equation", recording_image)
    code, _, _ = run(capsys, "report", path, "--format", "machine")
    assert code == 0 and cached == [[factor]]
    assert parsed and factor not in parsed      # the branch lines are parsed


def test_cache_store_leaves_only_the_sidecar(capsys, tmp_path, tmp_corpus):
    path = tmp_corpus("s1")
    code, _, _ = run(capsys, "ft", path, "--format", "machine")
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s1.germ", "s1.germ.gcache"]


def test_failed_cache_store_leaves_no_temp_file(capsys, tmp_path, tmp_corpus):
    path = tmp_corpus("s1")
    (tmp_path / "s1.germ.gcache").mkdir()     # renaming onto a directory fails
    code, out, _ = run(capsys, "report", path, "--format", "machine")
    assert code == 0 and machine_dict(out)["mu_image"] == "1"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s1.germ", "s1.germ.gcache"]
    assert (tmp_path / "s1.germ.gcache").is_dir()


# -- the `germinv` entry point ---------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _entry_point(argv, buffered=True, **popen):
    # without PYTHONUNBUFFERED stdout is block-buffered into a pipe, so only
    # the flush before the exit without teardown writes it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, "-m", "germinv.cli"] + argv, text=True,
                          env=env, timeout=120, **popen)


@pytest.mark.parametrize("case", ["machine", "human", "malformed", "budget"])
def test_entry_point_prints_what_console_main_prints(capsys, tmp_path, tmp_corpus, case):
    argv = ["report", "--with-lc", "--no-cache", tmp_corpus("s1")]
    if case == "machine":
        argv += ["--format", "machine"]
    elif case == "malformed":
        bad = tmp_path / "bad.germ"
        bad.write_text("source x y\ntarget y1 y2 y3\nparameter s\nbranch\n    x^\nend\n")
        argv[-1] = str(bad)
    elif case == "budget":
        limits = tmp_path / "limits.txt"
        limits.write_text("max-pairs 1\n")
        argv += ["--limits", str(limits)]
    expected = run(capsys, *argv)
    assert expected[0] == {"machine": 0, "human": 0, "malformed": 1, "budget": 2}[case]
    proc = _entry_point(argv, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_the_germinv_script_is_the_entry_point():
    assert 'germinv = "germinv.cli:main"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("buffered", [True, False])
def test_a_closed_stdout_is_one_error_line(buffered):
    # the reader of stdout is gone before the report is written: buffered,
    # the write fails at the final flush; unbuffered, at the first line
    r, w = os.pipe()
    os.close(r)
    try:
        proc = _entry_point(["report", "--format", "machine", "--no-cache",
                             corpus_path("crosscap")], buffered, stdout=w,
                            stderr=subprocess.PIPE)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write the output: [Errno 32] Broken pipe\n"
