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

`print_germ_file` emits the canonical form: fixed section order, one
canonical expression per branch line. Parsing the printed form reproduces
the parsed object exactly; that round trip is a test invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError, ParseError
from .exprparse import parse_polynomial
from .invariants import MapGermSpec
from .poly import Polynomial, VariableContext

# file keyword -> ComputeConfig field, in canonical print order
_CONFIG_KEYS: Tuple[Tuple[str, str], ...] = (
    ("seed", "seed"),
    ("retries", "s0_retries"),
    ("max-pairs", "max_pairs"),
    ("max-degree", "max_degree"),
)
_KEY_TO_FIELD = dict(_CONFIG_KEYS)


def config_line(overrides: Dict[str, int], key: str, text: str, lineno: int) -> None:
    """Record the config line `key text` in `overrides` (field -> value), for
    a germ file and a limits file alike. A repeated key is a parse error, and
    so is a value that is not one integer, or one of 0 or less for any key
    but `seed`, since every other key is a count or a bound."""
    field = _KEY_TO_FIELD[key]
    if field in overrides:
        raise ParseError(f"duplicate '{key}' line", lineno, 1)
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"'{key}' needs one integer", lineno, 1) from None
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


@dataclass(frozen=True)
class GermFile:
    """A parsed germ file: the spec plus any config overrides it carried."""

    spec: MapGermSpec
    overrides: Tuple[Tuple[str, int], ...] = ()   # (config field, value)

    def config(self, base: ComputeConfig = DEFAULT_CONFIG) -> ComputeConfig:
        return base.with_overrides(**dict(self.overrides)) if self.overrides else base


def _is_name(tok: str) -> bool:
    return tok.isidentifier()


def parse_germ_file(text: str) -> GermFile:
    """Parse germ-file text; all errors carry 1-based file positions."""
    # First pass: split into declarations and expression slots (with line
    # numbers), so sections may appear in any order relative to the
    # variable declarations the expressions need.
    source: Optional[List[str]] = None
    target: Optional[List[str]] = None
    parameter: Optional[str] = None
    branches_raw: List[List[Tuple[int, int, str]]] = []   # (line, indent, text)
    flags = {"stabilisation": False, "stable-unfolding": False}
    weights_raw: Optional[List[Tuple[int, str]]] = None
    overrides: Dict[str, int] = {}                # config field -> value

    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno = i + 1
        body = lines[i].split("#", 1)[0].strip()
        i += 1
        if not body:
            continue
        head, *rest = body.split(None, 1)
        rest = rest[0] if rest else ""

        if head in ("source", "target"):
            names = rest.split()
            if not names:
                raise ParseError(f"'{head}' needs at least one variable", lineno, 1)
            for n in names:
                if not _is_name(n):
                    raise ParseError(f"bad variable name {n!r}", lineno, 1)
            if (source if head == "source" else target) is not None:
                raise ParseError(f"duplicate '{head}' declaration", lineno, 1)
            if head == "source":
                source = names
            else:
                target = names
        elif head == "parameter":
            if parameter is not None:
                raise ParseError("duplicate 'parameter' declaration", lineno, 1)
            if not _is_name(rest) or " " in rest:
                raise ParseError("'parameter' needs exactly one variable name",
                                 lineno, 1)
            parameter = rest
        elif head == "branch":
            if rest:
                raise ParseError("'branch' takes no arguments; expressions go "
                                 "on the following lines", lineno, 1)
            block: List[Tuple[int, int, str]] = []
            closed = False
            while i < len(lines):
                sub_lineno = i + 1
                raw = lines[i].split("#", 1)[0]
                sub = raw.strip()
                i += 1
                if not sub:
                    continue
                if sub == "end":
                    closed = True
                    break
                block.append((sub_lineno, len(raw) - len(raw.lstrip()), sub))
            if not closed:
                raise ParseError("'branch' block never closed with 'end'",
                                 lineno, 1)
            if not block:
                raise ParseError("empty 'branch' block", lineno, 1)
            branches_raw.append(block)
        elif head in flags:
            if rest:
                raise ParseError(f"'{head}' takes no arguments", lineno, 1)
            flags[head] = True
        elif head == "weights":
            if weights_raw is not None:
                raise ParseError("duplicate 'weights' line", lineno, 1)
            if not rest:
                raise ParseError("'weights' needs name=value pairs", lineno, 1)
            weights_raw = [(lineno, pair) for pair in rest.split()]
        elif head in _KEY_TO_FIELD:
            config_line(overrides, head, rest, lineno)
        else:
            raise ParseError(f"unknown keyword {head!r}", lineno, 1)

    if source is None:
        raise ParseError("missing 'source' declaration", len(lines) or 1, 1)
    if target is None:
        raise ParseError("missing 'target' declaration", len(lines) or 1, 1)
    if parameter is None:
        raise ParseError("missing 'parameter' declaration", len(lines) or 1, 1)
    if not branches_raw:
        raise ParseError("no 'branch' block", len(lines) or 1, 1)

    # Second pass: build contexts and parse the stored expressions.
    shared = sorted(set(source) & set(target))
    if shared:
        raise ParseError(f"variables {shared} appear in both source and target",
                         1, 1)
    try:
        sctx = VariableContext.make(source=tuple(source), parameter=(parameter,))
        tctx = VariableContext.make(target=tuple(target), parameter=(parameter,))
    except (ValueError, GermInputError) as e:
        raise ParseError(str(e), 1, 1) from None

    def expr(lineno: int, indent: int, text_: str) -> Polynomial:
        try:
            return parse_polynomial(text_, sctx)
        except ParseError as e:   # the column counts from the file line's start
            raise ParseError(e.reason, lineno, indent + e.column) from None

    branches = []
    for block in branches_raw:
        if len(block) != len(target):
            raise ParseError(
                f"branch has {len(block)} expressions, target has "
                f"{len(target)} coordinates", block[0][0], 1)
        branches.append(tuple(expr(*raw) for raw in block))

    weights = None
    if weights_raw is not None:
        weights = {}
        for lineno, pair in weights_raw:
            name, eq, val = pair.partition("=")
            if not eq or not _is_name(name):
                raise ParseError(f"bad weight entry {pair!r} (want name=value)",
                                 lineno, 1)
            if name not in tctx.names:
                raise ParseError(f"weight for unknown variable {name!r}", lineno, 1)
            if name in weights:
                raise ParseError(f"duplicate weight for {name!r}", lineno, 1)
            try:
                weights[name] = int(val)
            except ValueError:
                raise ParseError(f"weight for {name!r} is not an integer",
                                 lineno, 1) from None

    spec = MapGermSpec(
        source=tuple(source),
        target=tuple(target),
        parameter=parameter,
        branches=tuple(branches),
        is_stabilisation=flags["stabilisation"],
        is_stable_unfolding=flags["stable-unfolding"],
        weights=weights,
    )
    ordered = tuple((f, overrides[f]) for _, f in _CONFIG_KEYS if f in overrides)
    return GermFile(spec, ordered)


def load_germ_file(path: str) -> GermFile:
    return parse_germ_file(_read_text(path))


def load_limits(path: str) -> Dict[str, int]:
    """The config overrides of a limits file: config lines only, parsed as
    in a germ file (config field -> value)."""
    overrides: Dict[str, int] = {}
    for lineno, raw in enumerate(_read_text(path, "limits file ").splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        key, *val = body.split(None, 1)
        if key not in _KEY_TO_FIELD:
            raise ParseError(f"unknown limit {key!r}", lineno, 1)
        config_line(overrides, key, val[0] if val else "", lineno)
    return overrides


def print_germ_file(gf: GermFile) -> str:
    """Canonical text for a parsed germ file (fixed section order)."""
    spec = gf.spec
    out: List[str] = []
    out.append("source " + " ".join(spec.source))
    out.append("target " + " ".join(spec.target))
    out.append("parameter " + spec.parameter)
    for branch in spec.branches:
        out.append("branch")
        for p in branch:
            out.append(f"    {p}")
        out.append("end")
    if spec.is_stabilisation:
        out.append("stabilisation")
    if spec.is_stable_unfolding:
        out.append("stable-unfolding")
    if spec.weights is not None:
        out.append("weights " + " ".join(f"{n}={spec.weights[n]}"
                                         for n in spec.target_ctx().names))
    field_to_key = {f: k for k, f in _CONFIG_KEYS}
    for field, value in gf.overrides:
        out.append(f"{field_to_key[field]} {value}")
    return "\n".join(out) + "\n"
