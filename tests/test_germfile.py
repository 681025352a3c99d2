import string

import pytest
from hypothesis import given, strategies as st

from germinv import ParseError, VariableContext
from germinv.exprparse import _tokenize, parse_polynomial
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


def test_keywords_split_on_any_whitespace():
    # a tab, or a run of blanks, separates a keyword from its arguments
    tabbed = (MINIMAL.replace("source x y", "source\tx y")
              .replace("parameter s", "parameter \t s")
              + "stabilisation\nweights\ty1=1\ty2=2 y3=3 s=1\nretries\t3\n")
    gf = parse_germ_file(tabbed)
    assert gf == parse_germ_file(MINIMAL + "stabilisation\nweights y1=1 y2=2 y3=3 s=1\n"
                                 "retries 3\n")
    assert gf.config().s0_retries == 3


def test_flags_and_weights_are_carried():
    gf = parse_germ_file(MINIMAL + "stable-unfolding\nweights y1=1 y2=2 y3=2 s=1\n")
    assert gf.spec.is_stable_unfolding and not gf.spec.is_stabilisation
    assert gf.spec.weights == {"y1": 1, "y2": 2, "y3": 2, "s": 1}


def test_config_overrides_flow_into_config():
    gf = parse_germ_file(MINIMAL + "seed 17\nretries 3\n"
                         "max-pairs 1000\nmax-degree 50\n")
    cfg = gf.config()
    assert (cfg.seed, cfg.s0_retries) == (17, 3)
    assert (cfg.max_pairs, cfg.max_degree) == (1000, 50)
    assert gf.config() == gf.config()   # stable, no hidden state


# -- expression-level errors keep file positions ----------------------------------

def test_expression_error_reports_file_line():
    bad = MINIMAL.replace("y^2", "y^^2")
    with pytest.raises(ParseError) as err:
        parse_germ_file(bad)
    # the column counts from the start of the file line, indentation included
    assert err.value.line == 6 and err.value.column == 7
    assert "line 6, column 7" in str(err.value)


@pytest.mark.parametrize("text, reason, line, column", [
    ("x $ y", "unexpected character '$'", 1, 3),
    ("x +\n  $", "unexpected character '$'", 2, 3),
    ("   ", "empty expression", 1, 1),
    ("3/x", "expected integer denominator after '/'", 1, 3),
    ("3/0", "zero denominator", 1, 3),
    ("(x + y", "expected ')'", 1, 7),
    ("x +", "unexpected end of expression", 1, 4),
    ("x + *", "unexpected '*'", 1, 5),
    ("x y", "unexpected 'y' after expression", 1, 3),
    ("x^²", "unexpected character '²'", 1, 3),
])
def test_expression_error_paths(text, reason, line, column):
    ctx = VariableContext.make(source=("x", "y"))
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, ctx)
    assert (err.value.reason, err.value.line, err.value.column) == (reason, line, column)
    assert str(err.value) == f"line {line}, column {column}: {reason}"


def test_deep_nesting_is_a_parse_error():
    # the column is where the stack ran out, which depends on the caller's
    # depth, so only the line and the reason are fixed
    def nested(depth):
        return MINIMAL.replace("x*y", "(" * depth + "x*y" + ")" * depth)

    with pytest.raises(ParseError) as err:
        parse_germ_file(nested(300))
    assert (err.value.reason, err.value.line) == ("parentheses nested too deeply", 7)
    assert parse_germ_file(nested(150)) == parse_germ_file(MINIMAL)


# multi-line text with every token kind, blanks, and non-ASCII letters,
# digits and symbols (a superscript, an Arabic-Indic digit, a fraction, a
# Roman numeral, a non-BMP letter, NBSP and a vertical tab)
TOKEN_TEXT = st.text(string.ascii_letters + string.digits + "+-*^()/_ \t\r\n"
                     "\u00b2\u0663\u00bd\u00e9\u00b7\u2167\u00df\U0001d501\u00a0\x0b",
                     max_size=40)


def _offset(text, line, col):
    """The index of the 1-based (line, col) in `text`; only '\\n' ends a line."""
    return sum(len(s) + 1 for s in text.split("\n")[:line - 1]) + col - 1


@given(TOKEN_TEXT)
def test_tokens_reassemble_their_text_at_their_positions(text):
    try:
        toks = _tokenize(text)
    except ParseError as e:
        # the error points at a character no token starts with, and all
        # before it tokenizes
        at = _offset(text, e.line, e.column)
        ch = text[at]
        assert e.reason == f"unexpected character {ch!r}"
        assert ch not in string.digits + "+-*^()/ \t\r\n"
        assert not (ch.isalpha() or ch == "_")
        _tokenize(text[:at])
        return
    end = 0
    for tok in toks[:-1]:
        at = _offset(text, tok.line, tok.col)
        assert text[at:at + len(tok.text)] == tok.text
        assert text[end:at].strip(" \t\r\n") == ""   # only skipped blanks between
        end = at + len(tok.text)
    assert text[end:].strip(" \t\r\n") == ""
    assert toks[-1].kind == "end" and _offset(text, toks[-1].line, toks[-1].col) == end


def test_unknown_variable_in_branch():
    bad = MINIMAL.replace("x*y", "x*z")
    with pytest.raises(ParseError, match="unknown variable 'z'"):
        parse_germ_file(bad)


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
    (lambda t: t + "retries 0\n", "'retries' needs a positive integer"),
    (lambda t: t + "jet-bound 40\n", "unknown keyword 'jet-bound'"),
    (lambda t: t + "max-pairs 0\n", "'max-pairs' needs a positive integer"),
    (lambda t: t + "max-degree -3\n", "'max-degree' needs a positive integer"),
    (lambda t: t + "weights y1=1\nweights y2=1\n", "duplicate 'weights'"),
    (lambda t: t + "weights y1\n", "bad weight entry"),
    (lambda t: t + "weights q=1\n", "unknown variable 'q'"),
    (lambda t: t + "weights y1=1 y1=2\n", "duplicate weight"),
    (lambda t: t + "weights y1=big\n", "not an integer"),
    (lambda t: t + "image y1\n", "unknown keyword 'image'"),
    (lambda t: t + "stabilisation yes\n", "takes no arguments"),
])
def test_malformed_files(mutate, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_germ_file(mutate(MINIMAL))


# every error names the line that caused it; a clash between declarations is
# reported at the later one, and integers are a sign and ASCII digits only
NO_SOURCE = MINIMAL.replace("source x y\n", "")   # 7 lines, target first


@pytest.mark.parametrize("text, reason, line", [
    pytest.param("# a germ\n\n\n\nsource x x\n" + NO_SOURCE,
                 "variable 'x' appears twice in 'source'", 5, id="source-x-x"),
    pytest.param(MINIMAL.replace("target y1 y2 y3", "target y1 x y3"),
                 "variable 'x' appears in both source and target", 2,
                 id="target-after-source"),
    pytest.param(NO_SOURCE.replace("target y1 y2 y3", "target y1 x y3") + "source x y\n",
                 "variable 'x' appears in both source and target", 8,
                 id="source-after-target"),
    pytest.param(MINIMAL.replace("source x y", "source x s"),
                 "variable 's' appears in both source and parameter", 3,
                 id="parameter-in-source"),
    pytest.param(MINIMAL.replace("target y1 y2 y3", "target y1 y2"),
                 "target needs exactly one more variable than source", 2,
                 id="target-too-short"),
    pytest.param(MINIMAL + "retries \u0663\n", "'retries' needs one integer", 9,
                 id="arabic-indic-retries"),
    pytest.param(MINIMAL + "retries 1_0\n", "'retries' needs one integer", 9,
                 id="underscore-retries"),
    pytest.param(MINIMAL + "weights y1=\u0661 y2=2 y3=3 s=1\n",
                 "weight for 'y1' is not an integer", 9, id="arabic-indic-weight"),
    pytest.param(MINIMAL + "weights y1=0 y2=2 y3=3 s=1\n",
                 "weights must be positive integers", 9, id="zero-weight"),
    pytest.param(MINIMAL + "weights y1=1\n",
                 "weights missing for ['y2', 'y3', 's']", 9, id="missing-weights"),
    pytest.param(MINIMAL.replace("    y^2", "    y^2 + 1"),
                 "branch component does not vanish at the origin", 6, id="constant-term"),
])
def test_errors_name_their_line(text, reason, line):
    with pytest.raises(ParseError) as err:
        parse_germ_file(text)
    assert (err.value.reason, err.value.line, err.value.column) == (reason, line, 1)


def test_signed_integers_still_parse():
    gf = parse_germ_file(MINIMAL + "retries +3\nseed -2\nweights y1=+1 y2=2 y3=3 s=1\n")
    assert (gf.config().s0_retries, gf.config().seed) == (3, -2)
    assert gf.spec.weights["y1"] == 1


def test_multiplicity_has_no_power_cap_key():
    with pytest.raises(ParseError, match="unknown keyword 'kmax'"):
        parse_germ_file(MINIMAL + "kmax 12\n")


def test_no_branch_block():
    with pytest.raises(ParseError, match="no 'branch' block"):
        parse_germ_file("source x\ntarget y1 y2\nparameter s\n")
