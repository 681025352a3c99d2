import pytest

from germinv import ParseError, VariableContext
from germinv.exprparse import parse_polynomial
from germinv.germfile import parse_germ_file, print_germ_file

from conftest import CORPUS

MINIMAL = """\
source x y
target y1 y2 y3
parameter s
branch
    x
    y^2
    x*y
end
"""


def test_round_trip_on_the_corpus():
    for path in sorted(CORPUS.glob("*.germ")):
        gf = parse_germ_file(path.read_text())
        printed = print_germ_file(gf)
        assert parse_germ_file(printed) == gf, path.name
        # canonical form is a fixed point
        assert print_germ_file(parse_germ_file(printed)) == printed, path.name


def test_sections_in_any_order():
    shuffled = """\
stabilisation
branch
    x
    y^2
    x*y
end
parameter s
target y1 y2 y3
source x y
"""
    assert parse_germ_file(shuffled) == parse_germ_file(MINIMAL + "stabilisation\n")


def test_comments_and_blank_lines_are_ignored():
    noisy = MINIMAL.replace("branch", "# leading comment\n\nbranch  # trailing")
    assert parse_germ_file(noisy) == parse_germ_file(MINIMAL)


def test_flags_and_weights_are_carried():
    gf = parse_germ_file(MINIMAL + "stable-unfolding\nweights y1=1 y2=2 y3=2 s=1\n")
    assert gf.spec.is_stable_unfolding and not gf.spec.is_stabilisation
    assert gf.spec.weights == {"y1": 1, "y2": 2, "y3": 2, "s": 1}


def test_config_overrides_flow_into_config():
    gf = parse_germ_file(MINIMAL + "seed 17\nretries 3\n"
                         "jet-bound 40\nmax-pairs 1000\nmax-degree 50\n")
    cfg = gf.config()
    assert (cfg.seed, cfg.s0_retries) == (17, 3)
    assert (cfg.jet_bound, cfg.max_pairs, cfg.max_degree) == (40, 1000, 50)
    assert gf.config() == gf.config()   # stable, no hidden state


# -- expression-level errors keep file positions ----------------------------------

def test_expression_error_reports_file_line():
    bad = MINIMAL.replace("y^2", "y^^2")
    with pytest.raises(ParseError) as err:
        parse_germ_file(bad)
    assert err.value.line == 6 and err.value.column == 3
    assert "line 6, column 3" in str(err.value)


def test_unknown_variable_in_branch():
    bad = MINIMAL.replace("x*y", "x*z")
    with pytest.raises(ParseError, match="unknown variable 'z'"):
        parse_germ_file(bad)


def test_image_expression_uses_target_context():
    ok = parse_germ_file(MINIMAL + "image y1^2*y2 - y3^2\n")
    tctx = VariableContext.make(target=("y1", "y2", "y3"), parameter=("s",))
    assert ok.spec.image_g == parse_polynomial("y1^2*y2 - y3^2", tctx)
    with pytest.raises(ParseError, match="unknown variable 'x'"):
        parse_germ_file(MINIMAL + "image x\n")


# -- structural errors ----------------------------------------------------------------

@pytest.mark.parametrize("mutate, fragment", [
    (lambda t: t + "frobnicate 3\n", "unknown keyword"),
    (lambda t: t.replace("source x y\n", ""), "missing 'source'"),
    (lambda t: t.replace("parameter s\n", ""), "missing 'parameter'"),
    (lambda t: t + "source a b\n", "duplicate 'source'"),
    (lambda t: t + "parameter t\n", "duplicate 'parameter'"),
    (lambda t: t.replace("end\n", ""), "never closed"),
    (lambda t: t.replace("    x*y\n", ""), "branch has 2 expressions"),
    (lambda t: t.replace("parameter s", "parameter s t"),
     "exactly one variable name"),
    (lambda t: t.replace("target y1 y2 y3", "target y1 x y3"),
     "both source and target"),
    (lambda t: t + "branch\nend\n", "empty 'branch'"),
    (lambda t: t + "retries nine\n", "'retries' needs one integer"),
    (lambda t: t + "retries 4\nretries 5\n", "duplicate 'retries'"),
    (lambda t: t + "weights y1=1\nweights y2=1\n", "duplicate 'weights'"),
    (lambda t: t + "weights y1\n", "bad weight entry"),
    (lambda t: t + "weights q=1\n", "unknown variable 'q'"),
    (lambda t: t + "weights y1=1 y1=2\n", "duplicate weight"),
    (lambda t: t + "weights y1=big\n", "not an integer"),
    (lambda t: t + "image y1\nimage y2\n", "duplicate 'image'"),
    (lambda t: t + "stabilisation yes\n", "takes no arguments"),
])
def test_malformed_files(mutate, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_germ_file(mutate(MINIMAL))


def test_multiplicity_has_no_power_cap_key():
    with pytest.raises(ParseError, match="unknown keyword 'kmax'"):
        parse_germ_file(MINIMAL + "kmax 12\n")


def test_no_branch_block():
    with pytest.raises(ParseError, match="no 'branch' block"):
        parse_germ_file("source x\ntarget y1 y2\nparameter s\n")
