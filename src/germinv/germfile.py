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
coordinate (several blocks make a multigerm); an optional `image` line
supplies the image equation directly (skipping elimination); bare
`stabilisation` / `stable-unfolding` lines assert the corresponding flags;
`weights name=w ...` asserts quasi-homogeneous weights for the target and
parameter variables. Branch expressions live in the source variables plus
the parameter, the image expression in the target variables plus the
parameter. `#` starts a comment anywhere.

Config overrides are single lines `seed N`, `retries N`, `jet-bound N`,
`max-pairs N`, `max-degree N`; any other keyword is a parse error.

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
    ("jet-bound", "jet_bound"),
    ("max-pairs", "max_pairs"),
    ("max-degree", "max_degree"),
)
_KEY_TO_FIELD = dict(_CONFIG_KEYS)


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
    branches_raw: List[List[Tuple[int, str]]] = []
    image_raw: Optional[Tuple[int, str]] = None
    flags = {"stabilisation": False, "stable-unfolding": False}
    weights_raw: Optional[List[Tuple[int, str]]] = None
    overrides: Dict[str, Tuple[int, int]] = {}    # field -> (line, value)

    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno = i + 1
        body = lines[i].split("#", 1)[0].strip()
        i += 1
        if not body:
            continue
        head, _, rest = body.partition(" ")
        rest = rest.strip()

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
            block: List[Tuple[int, str]] = []
            closed = False
            while i < len(lines):
                sub_lineno = i + 1
                sub = lines[i].split("#", 1)[0].strip()
                i += 1
                if not sub:
                    continue
                if sub == "end":
                    closed = True
                    break
                block.append((sub_lineno, sub))
            if not closed:
                raise ParseError("'branch' block never closed with 'end'",
                                 lineno, 1)
            if not block:
                raise ParseError("empty 'branch' block", lineno, 1)
            branches_raw.append(block)
        elif head == "image":
            if image_raw is not None:
                raise ParseError("duplicate 'image' line", lineno, 1)
            if not rest:
                raise ParseError("'image' needs an expression", lineno, 1)
            image_raw = (lineno, rest)
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
            field = _KEY_TO_FIELD[head]
            if field in overrides:
                raise ParseError(f"duplicate '{head}' line", lineno, 1)
            try:
                value = int(rest)
            except ValueError:
                raise ParseError(f"'{head}' needs one integer", lineno, 1) from None
            overrides[field] = (lineno, value)
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

    def expr(raw: Tuple[int, str], ctx) -> Polynomial:
        lineno, text_ = raw
        try:
            return parse_polynomial(text_, ctx)
        except ParseError as e:
            raise ParseError(e.reason, lineno, e.column) from None

    branches = []
    for block in branches_raw:
        if len(block) != len(target):
            raise ParseError(
                f"branch has {len(block)} expressions, target has "
                f"{len(target)} coordinates", block[0][0], 1)
        branches.append(tuple(expr(raw, sctx) for raw in block))

    image_g = expr(image_raw, tctx) if image_raw is not None else None

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
        image_g=image_g,
        is_stabilisation=flags["stabilisation"],
        is_stable_unfolding=flags["stable-unfolding"],
        weights=weights,
    )
    ordered = tuple((f, overrides[f][1]) for _, f in _CONFIG_KEYS
                    if f in overrides)
    return GermFile(spec, ordered)


def load_germ_file(path: str) -> GermFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise GermInputError(f"cannot read {path}: {e.strerror}") from None
    return parse_germ_file(text)


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
    if spec.image_g is not None:
        out.append(f"image {spec.image_g}")
    if spec.is_stabilisation:
        out.append("stabilisation")
    if spec.is_stable_unfolding:
        out.append("stable-unfolding")
    if spec.weights is not None:
        tctx = spec.target_ctx()
        pairs = " ".join(f"{n}={spec.weights[n]}" for n in tctx.names
                         if n in spec.weights)
        out.append("weights " + pairs)
    field_to_key = {f: k for k, f in _CONFIG_KEYS}
    for field, value in gf.overrides:
        out.append(f"{field_to_key[field]} {value}")
    return "\n".join(out) + "\n"
