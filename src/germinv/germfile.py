"""Line-oriented germ description files.

One germ per file; a corpus is a directory of files. The format:

    # crosscap, constant unfolding
    source x y
    target y1 y2 y3
    parameter s
    branch
        x
        y^2
        x*y
    end
    stabilisation

Sections may appear in any order. `source`/`target`/`parameter` declare the
variables; each `branch` .. `end` block lists one expression per target
coordinate (several blocks make a multigerm); bare `stabilisation` /
`stable-unfolding` lines assert the corresponding flags; `weights name=w ...`
asserts quasi-homogeneous weights for the target and parameter variables.
Branch expressions live in the source variables plus the parameter; the
image equation is always eliminated from them. `#` starts a comment
anywhere, and any run of whitespace, tabs included, separates a keyword
from what follows it.

Config overrides are single lines `seed N`, `retries N`, `max-pairs N`,
`max-degree N`; any other keyword is a parse error, and so is a repeated
key or a value of 0 or less for any of them but `seed`. A limits file
(`load_limits`) holds config lines only, parsed by the same `config_line`.
An integer there or in a weight is an optional sign, then ASCII digits.
Every `ParseError` names the file line that caused it.

`print_germ_file` emits the canonical form: fixed section order, one
canonical expression per branch line. Parsing the printed form reproduces
the parsed object exactly; that round trip is a test invariant. Its
declarations and branch blocks come from `declaration_lines`, which also
gives the text of the image-equation sidecar's key (`cli._content_key`).
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError, ParseError
from .exprparse import parse_polynomial
from .invariants import MapGermSpec
from .poly import Polynomial, VariableContext

# file keyword -> ComputeConfig field, in canonical print order
_CONFIG = {"seed": "seed", "retries": "s0_retries",
           "max-pairs": "max_pairs", "max-degree": "max_degree"}
_DECLARATIONS = ("source", "target", "parameter")

Statement = Tuple[int, int, str, str]   # (line, indent, keyword, rest)
_STATEMENT = re.compile(r"(\s*)(\S+)(.*?)\s*")  # indent, keyword, rest


def _statements(lines: Sequence[str]) -> Iterator[Statement]:
    """A statement per line not blank once its `#` comment is cut; `rest`
    keeps its separator, so `keyword + rest` is the line's text."""
    for lineno, raw in enumerate(lines, 1):
        m = _STATEMENT.fullmatch(raw.split("#", 1)[0])
        if m:
            yield lineno, len(m[1]), m[2], m[3]


def _integer(text: str, lineno: int, reason: str) -> int:
    """An optional sign, then ASCII digits; `int` alone takes '٣' and '1_0'."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise ParseError(reason, lineno, 1)
    return int(text)


def config_line(overrides: Dict[str, int], key: str, text: str, lineno: int) -> None:
    """Record the config line `key text` in `overrides` (field -> value), for
    a germ file and a limits file alike. A repeated key is a parse error, and
    so is a value that is not one integer, or one of 0 or less for any key
    but `seed`, since every other key is a count or a bound."""
    field = _CONFIG[key]
    if field in overrides:
        raise ParseError(f"duplicate '{key}' line", lineno, 1)
    value = _integer(text, lineno, f"'{key}' needs one integer")
    if value <= 0 and key != "seed":
        raise ParseError(f"'{key}' needs a positive integer", lineno, 1)
    overrides[field] = value


def _read_text(path: str, what: str = "") -> str:
    """The file's text; a file that cannot be opened or is not UTF-8 is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        reason = e.strerror
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise GermInputError(f"cannot read {what}{path}: {reason}")


class GermFile(NamedTuple):
    """A parsed germ file: the spec plus any config overrides it carried."""

    spec: MapGermSpec
    overrides: Tuple[Tuple[str, int], ...] = ()   # (config field, value)

    def config(self) -> ComputeConfig:
        return DEFAULT_CONFIG.with_overrides(**dict(self.overrides))


def parse_germ_file(text: str) -> GermFile:
    """Parse germ-file text; all errors carry 1-based file positions."""
    # First pass: check the declarations, keep the rest for the second.
    declared: Dict[str, Tuple[int, List[str]]] = {}   # keyword -> (line, names)
    owner: Dict[str, str] = {}                         # variable -> its keyword
    blocks: List[List[Statement]] = []
    flags = {"stabilisation": False, "stable-unfolding": False}
    weights_at = None                                  # (line, name=value pairs)
    overrides: Dict[str, int] = {}                     # config field -> value

    lines = text.splitlines()
    statements = _statements(lines)
    for lineno, _, head, rest in statements:
        if head in _DECLARATIONS:
            names = rest.split()
            if head in declared:
                raise ParseError(f"duplicate '{head}' declaration", lineno, 1)
            if head == "parameter" and len(names) != 1:
                raise ParseError("'parameter' needs exactly one variable name", lineno, 1)
            if not names:
                raise ParseError(f"'{head}' needs at least one variable", lineno, 1)
            for n in names:
                if not n.isidentifier():
                    raise ParseError(f"bad variable name {n!r}", lineno, 1)
                if owner.get(n) == head:
                    raise ParseError(f"variable {n!r} appears twice in '{head}'", lineno, 1)
                if n in owner:   # a clash is reported at the later declaration
                    both = " and ".join(k for k in _DECLARATIONS if k in (owner[n], head))
                    raise ParseError(f"variable {n!r} appears in both {both}", lineno, 1)
                owner[n] = head
            declared[head] = (lineno, names)
        elif head == "branch":
            if rest:
                raise ParseError("'branch' takes no arguments; expressions go "
                                 "on the following lines", lineno, 1)
            block: List[Statement] = []
            for sub in statements:
                if sub[2:] == ("end", ""):
                    break
                block.append(sub)
            else:
                raise ParseError("'branch' block never closed with 'end'", lineno, 1)
            if not block:
                raise ParseError("empty 'branch' block", lineno, 1)
            blocks.append(block)
        elif head in flags:
            if rest:
                raise ParseError(f"'{head}' takes no arguments", lineno, 1)
            flags[head] = True
        elif head == "weights":
            if weights_at is not None:
                raise ParseError("duplicate 'weights' line", lineno, 1)
            if not rest:
                raise ParseError("'weights' needs name=value pairs", lineno, 1)
            weights_at = (lineno, rest.split())
        elif head in _CONFIG:
            config_line(overrides, head, rest, lineno)
        else:
            raise ParseError(f"unknown keyword {head!r}", lineno, 1)

    for head in _DECLARATIONS:
        if head not in declared:
            raise ParseError(f"missing '{head}' declaration", len(lines) or 1, 1)
    if not blocks:
        raise ParseError("no 'branch' block", len(lines) or 1, 1)
    source, target, [parameter] = (declared[k][1] for k in _DECLARATIONS)
    if len(target) != len(source) + 1:
        raise ParseError("target needs exactly one more variable than source",
                         max(declared["source"][0], declared["target"][0]), 1)

    # Second pass: parse the stored expressions and weights.
    sctx = VariableContext.make(source=tuple(source), parameter=(parameter,))

    def expr(lineno: int, indent: int, head: str, rest: str) -> Polynomial:
        try:
            p = parse_polynomial(head + rest, sctx)
        except ParseError as e:   # the column counts from the file line's start
            raise ParseError(e.reason, lineno, indent + e.column) from None
        if p.constant_term():
            raise ParseError("branch component does not vanish at the origin",
                             lineno, 1)
        return p

    branches = []
    for block in blocks:
        if len(block) != len(target):
            raise ParseError(
                f"branch has {len(block)} expressions, target has "
                f"{len(target)} coordinates", block[0][0], 1)
        branches.append(tuple(expr(*sub) for sub in block))

    weights = None
    if weights_at is not None:
        lineno, pairs = weights_at
        weighted = (*target, parameter)
        weights = {}
        for pair in pairs:
            name, eq, val = pair.partition("=")
            if not eq or not name.isidentifier():
                raise ParseError(f"bad weight entry {pair!r} (want name=value)",
                                 lineno, 1)
            if name not in weighted:
                raise ParseError(f"weight for unknown variable {name!r}", lineno, 1)
            if name in weights:
                raise ParseError(f"duplicate weight for {name!r}", lineno, 1)
            weights[name] = _integer(val, lineno, f"weight for {name!r} is not an integer")
        missing = [n for n in weighted if n not in weights]
        if missing:
            raise ParseError(f"weights missing for {missing}", lineno, 1)
        if any(w <= 0 for w in weights.values()):
            raise ParseError("weights must be positive integers", lineno, 1)

    spec = MapGermSpec(
        source=tuple(source),
        target=tuple(target),
        parameter=parameter,
        branches=tuple(branches),
        is_stabilisation=flags["stabilisation"],
        is_stable_unfolding=flags["stable-unfolding"],
        weights=weights,
    )
    ordered = tuple((f, overrides[f]) for f in _CONFIG.values() if f in overrides)
    return GermFile(spec, ordered)


def load_germ_file(path: str) -> GermFile:
    return parse_germ_file(_read_text(path))


def load_limits(path: str) -> Dict[str, int]:
    """The config overrides of a limits file: config lines only, parsed as
    in a germ file (config field -> value)."""
    overrides: Dict[str, int] = {}
    for lineno, _, key, rest in _statements(_read_text(path, "limits file ").splitlines()):
        if key not in _CONFIG:
            raise ParseError(f"unknown limit {key!r}", lineno, 1)
        config_line(overrides, key, rest, lineno)
    return overrides


def declaration_lines(spec: MapGermSpec) -> List[str]:
    """The canonical `source`, `target` and `parameter` lines of a spec, then
    each branch as `branch`, one indented expression a line, and `end`."""
    out = ["source " + " ".join(spec.source), "target " + " ".join(spec.target),
           "parameter " + spec.parameter]
    for branch in spec.branches:
        out += ["branch", *(f"    {p}" for p in branch), "end"]
    return out


def print_germ_file(gf: GermFile) -> str:
    """Canonical text for a parsed germ file (fixed section order)."""
    spec = gf.spec
    out = declaration_lines(spec)
    if spec.is_stabilisation:
        out.append("stabilisation")
    if spec.is_stable_unfolding:
        out.append("stable-unfolding")
    if spec.weights is not None:
        out.append("weights " + " ".join(f"{n}={spec.weights[n]}"
                                         for n in spec.target_ctx().names))
    overrides = dict(gf.overrides)
    out.extend(f"{key} {overrides[field]}" for key, field in _CONFIG.items()
               if field in overrides)
    return "\n".join(out) + "\n"
