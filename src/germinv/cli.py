"""Command-line surface.

Each subcommand loads a germ file, computes one invariant (or the full
report), and prints it in one of two formats: `human` (aligned table) or
`machine` (line-delimited key=value text, schema version first, byte-stable
for a fixed seed). Exit codes: 0 success, 1 bad input, 2 resource limit
exceeded, 3 the routes that must agree did not.

The expensive step shared by every command is the image equation; its
branch factors are cached in a sidecar `<file>.gcache` keyed by a content
hash of the declarations and branch block, so repeated invocations on an
unchanged file skip elimination. The cache never stores invariants — those
are recomputed every time, disagreements included.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError, ParseError, ResourceLimitError
from .exprparse import parse_polynomial
from .gb import EMPTY, INFINITE
from .germfile import GermFile, _KEY_TO_FIELD, load_germ_file
from .invariants import (
    ImageEquation, ae_codimension, bruce_roberts_number, ft_codim,
    ft_dimension, full_report, image_equation, image_milnor_number, lc_ideal,
    milnor_number, _ft_global,
)
from .poly import Polynomial, VariableContext

_CACHE_MAGIC = "germinv.gcache.v1"


# -- formatting ---------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "none"
    if value is EMPTY:
        return "empty"
    if value is INFINITE:
        return "infinite"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _emit_machine(schema: str, rows: Sequence[Tuple[str, object]],
                  warnings: Sequence[str] = ()) -> None:
    print(f"schema={schema}")
    for key, value in rows:
        print(f"{key}={_fmt(value)}")
    print(f"warnings={len(warnings)}")
    for i, w in enumerate(warnings, 1):
        print(f"warning_{i}={w}")


def _emit_human(rows: Sequence[Tuple[str, str]],
                warnings: Sequence[str] = ()) -> None:
    width = max((len(label) for label, _ in rows), default=0)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")
    for w in warnings:
        print(f"warning: {w}")


# -- config assembly ----------------------------------------------------------

def _parse_limits(path: str) -> Dict[str, int]:
    over: Dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise GermInputError(f"cannot read limits file {path}: {e.strerror}")
    for lineno, raw in enumerate(lines, 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        key, _, val = body.partition(" ")
        if key not in _KEY_TO_FIELD:
            raise ParseError(f"unknown limit {key!r}", lineno, 1)
        try:
            over[_KEY_TO_FIELD[key]] = int(val.strip())
        except ValueError:
            raise ParseError(f"'{key}' needs one integer", lineno, 1) from None
    return over


def _resolve_config(gf: Optional[GermFile], args) -> ComputeConfig:
    """Precedence: defaults < germ-file overrides < --limits file < flags."""
    cfg = gf.config() if gf is not None else DEFAULT_CONFIG
    if getattr(args, "limits", None):
        cfg = cfg.with_overrides(**_parse_limits(args.limits))
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    return cfg


# -- image-equation cache -----------------------------------------------------

def _content_key(gf: GermFile) -> str:
    spec = gf.spec
    parts = ["source " + " ".join(spec.source),
             "target " + " ".join(spec.target),
             "parameter " + spec.parameter]
    for branch in spec.branches:
        parts.append("branch")
        parts.extend(str(p) for p in branch)
        parts.append("end")
    if spec.image_g is not None:
        parts.append(f"image {spec.image_g}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _cache_load(path: str, key: str, gf: GermFile) -> Optional[List[Polynomial]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    if len(lines) < 3 or lines[0] != _CACHE_MAGIC or lines[1] != f"key={key}":
        return None
    tctx = gf.spec.target_ctx()
    factors = []
    for line in lines[2:]:
        if not line.startswith("factor="):
            return None
        try:
            factors.append(parse_polynomial(line[len("factor="):], tctx))
        except ParseError:
            return None
    if len(factors) != len(gf.spec.branches):
        return None
    return factors


def _cache_store(path: str, key: str, factors: Sequence[Polynomial]) -> None:
    """Write the sidecar through a temp file and a rename, so that a
    concurrent run reads either the old sidecar or the whole new one."""
    body = "\n".join([_CACHE_MAGIC, f"key={key}"]
                     + [f"factor={p}" for p in factors]) + "\n"
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=os.path.basename(path) + ".", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except OSError:
        # a read-only corpus directory must not break the computation
        if tmp is not None:
            try:
                os.remove(tmp)
            except OSError:
                pass


def _load_image(gf: GermFile, germ_path: str, cfg: ComputeConfig,
                use_cache: bool) -> ImageEquation:
    if gf.spec.image_g is not None or not use_cache:
        return image_equation(gf.spec, cfg)
    key = _content_key(gf)
    cache_path = germ_path + ".gcache"
    cached = _cache_load(cache_path, key, gf)
    if cached is not None:
        return image_equation(gf.spec, cfg, cached_factors=cached)
    G = image_equation(gf.spec, cfg)
    _cache_store(cache_path, key, G.factors)
    return G


# -- subcommands ---------------------------------------------------------------

def _cmd_image(G: ImageEquation, args) -> int:
    if args.format == "machine":
        rows: List[Tuple[str, object]] = [("provenance", G.provenance),
                                          ("g", G.g)]
        rows += [(f"factor_{i}", f) for i, f in enumerate(G.factors, 1)]
        _emit_machine("germinv.image.v1", rows, G.warnings)
    else:
        rows = [("provenance", G.provenance), ("G", str(G.g))]
        if len(G.factors) > 1:
            rows += [(f"factor {i}", str(f))
                     for i, f in enumerate(G.factors, 1)]
        _emit_human(rows, G.warnings)
    return 0


def _cmd_ft(G: ImageEquation, args) -> int:
    gens = _ft_global(G)
    codim = ft_codim(G)
    fdim = ft_dimension(G)
    if args.format == "machine":
        rows: List[Tuple[str, object]] = [("ft_codim", codim), ("ft_dim", fdim)]
        rows += [(f"gen_{i}", p) for i, p in enumerate(gens, 1)]
        _emit_machine("germinv.ft.v1", rows, G.warnings)
    else:
        rows = [("ft codimension", str(codim)),
                ("ft quotient dimension", _fmt(fdim)),
                ("generators", str(len(gens)))]
        rows += [(f"  [{i}]", str(p)) for i, p in enumerate(gens, 1)]
        _emit_human(rows, G.warnings)
    return 0


def _cmd_mu_image(G: ImageEquation, args) -> int:
    mu = image_milnor_number(G)
    stability = "stable" if mu.multiplicity == 0 else "unstable"
    if args.format == "machine":
        _emit_machine("germinv.mu-image.v1",
                      [("mu_image", mu.multiplicity),
                       ("samuel_profile", mu.profile),
                       ("stability", stability)], G.warnings)
    else:
        _emit_human([("image Milnor number", str(mu.multiplicity)),
                     ("Samuel profile", ", ".join(map(str, mu.profile))),
                     ("stability", stability)], G.warnings)
    return 0


def _cmd_mu_br(G: ImageEquation, args) -> int:
    mu = bruce_roberts_number(G)
    if args.format == "machine":
        _emit_machine("germinv.mu-br.v1", [("mu_br", mu)], G.warnings)
    else:
        _emit_human([("Bruce-Roberts number", str(mu))], G.warnings)
    return 0


def _cmd_ae(G: ImageEquation, args) -> int:
    ae = ae_codimension(G)
    if args.format == "machine":
        _emit_machine("germinv.ae-codim.v1", [("ae_codim", ae)], G.warnings)
    else:
        _emit_human([("Ae-codimension", str(ae))], G.warnings)
    return 0


def _cmd_lc_check(G: ImageEquation, args) -> int:
    lc = lc_ideal(G)
    ok = lc.substitution_identity()
    dim = lc.certified_dimension()
    expected = len(G.ctx) + 1
    if args.format == "machine":
        _emit_machine("germinv.lc-check.v1",
                      [("lc_substitution", ok), ("lc_dim", dim),
                       ("lc_dim_expected", expected)], G.warnings)
    else:
        _emit_human([("cotangent substitution", "ok" if ok else "MISMATCH"),
                     ("characteristic dimension", str(dim)),
                     ("expected", str(expected))], G.warnings)
    return 0 if ok and dim == expected else 3


def _cmd_report(gf: GermFile, G: ImageEquation, cfg: ComputeConfig, args) -> int:
    s0 = None
    if args.s0 is not None:
        try:
            s0 = Fraction(args.s0)
        except (ValueError, ZeroDivisionError):
            raise GermInputError(f"--s0 must be a rational, got {args.s0!r}") from None
    r = full_report(gf.spec, cfg, with_lc=args.with_lc, s0=s0, image=G)
    if args.format == "machine":
        rows: List[Tuple[str, object]] = [
            ("mu_image", r.mu_image),
            ("mu_image_oracle", r.mu_image_oracle),
            ("oracle_s0", r.oracle_s0),
            ("ft_codim", r.ft_codim),
            ("ft_dim", r.ft_dim),
            ("mu_br", r.mu_br),
            ("cm_flag", r.cm_flag),
            ("stability", r.stability),
            ("ae_codim", r.ae_codim),
            ("samuel_profile", r.samuel_profile),
        ]
        if args.with_lc:
            rows.append(("lc_dim", r.lc_dim))
        rows.append(("route_disagreement", r.route_disagreement))
        _emit_machine("germinv.report.v1", rows, r.warnings)
    else:
        rows = [
            ("stability", r.stability),
            ("image Milnor number", str(r.mu_image)),
            ("slice-count oracle", f"{r.mu_image_oracle}  (s0 = {r.oracle_s0})"),
            ("ft codimension", str(r.ft_codim)),
            ("Cohen-Macaulay", "yes" if r.cm_flag else "no"),
            ("Bruce-Roberts number", str(r.mu_br)),
            ("Ae-codimension", _fmt(r.ae_codim)),
            ("Samuel profile", ", ".join(map(str, r.samuel_profile))),
            ("ft quotient dimension", _fmt(r.ft_dim)),
        ]
        if args.with_lc:
            rows.append(("characteristic dimension", _fmt(r.lc_dim)))
        _emit_human(rows, r.warnings)
    return 3 if r.route_disagreement else 0


def _cmd_milnor(args) -> int:
    names = [n.strip() for n in args.vars.split(",") if n.strip()]
    if not names:
        raise GermInputError("--vars needs a comma-separated variable list")
    ctx = VariableContext.make(source=tuple(names))
    p = parse_polynomial(args.expression, ctx)
    cfg = _resolve_config(None, args)
    mu = milnor_number(p, cfg)
    if args.format == "machine":
        _emit_machine("germinv.milnor.v1", [("milnor", mu)])
    else:
        _emit_human([("Milnor number", _fmt(mu))])
    return 0


# -- argument surface ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="germinv",
        description="Invariants of polynomial map germs from their unfoldings")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_file: bool = True):
        if with_file:
            p.add_argument("file", help="germ description file")
            p.add_argument("--no-cache", action="store_true",
                           help="ignore and do not write the image-equation cache")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for sampled slice values and guards")
        p.add_argument("--limits", default=None,
                       help="file of limit overrides (same keys as germ files)")
        p.add_argument("--format", choices=("human", "machine"),
                       default="human")

    for name, help_ in (
            ("image", "compute and print the image equation"),
            ("ft", "transversality-failure ideal, codimension, dimension"),
            ("mu-image", "image Milnor number: the parameter's multiplicity on "
                         "the FT quotient, by saturation"),
            ("mu-br", "Bruce-Roberts number of the parameter projection"),
            ("ae-codim", "Ae-codimension (input must assert a stable unfolding)"),
            ("lc-check", "characteristic-locus dimension and substitution check"),
            ("report", "all invariants, cross-checked")):
        p = sub.add_parser(name, help=help_)
        common(p)
        if name == "report":
            p.add_argument("--s0", default=None,
                           help="slice sample value (nonzero rational, e.g. 1/2)")
            p.add_argument("--with-lc", action="store_true",
                           help="include the characteristic-locus check")

    p = sub.add_parser("milnor",
                       help="Milnor number of an isolated hypersurface singularity")
    p.add_argument("expression", help="polynomial, e.g. 'x^3 + y^2'")
    p.add_argument("--vars", required=True,
                   help="comma-separated variable names, e.g. x,y")
    common(p, with_file=False)
    return top


def _run(argv: Optional[Sequence[str]]) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "milnor":
        return _cmd_milnor(args)

    gf = load_germ_file(args.file)
    cfg = _resolve_config(gf, args)
    G = _load_image(gf, args.file, cfg, use_cache=not args.no_cache)

    if args.command == "image":
        return _cmd_image(G, args)
    if args.command == "ft":
        return _cmd_ft(G, args)
    if args.command == "mu-image":
        return _cmd_mu_image(G, args)
    if args.command == "mu-br":
        return _cmd_mu_br(G, args)
    if args.command == "ae-codim":
        return _cmd_ae(G, args)
    if args.command == "lc-check":
        return _cmd_lc_check(G, args)
    if args.command == "report":
        return _cmd_report(gf, G, cfg, args)
    raise AssertionError(f"unhandled command {args.command}")


def console_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(argv)
    except GermInputError as e:           # ParseError included
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(console_main())
