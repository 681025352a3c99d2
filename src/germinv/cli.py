"""Command-line surface.

Each subcommand loads a germ file, computes one invariant (or the full
report) as one list of (key, value) rows, and prints those rows in one of
two formats: `machine` (line-delimited key=value text, schema version first,
byte-stable for a fixed seed) or `human` (the same rows in the same order,
an aligned table of labels). Exit codes: 0 success, 1 bad input, 2 resource limit
exceeded, 3 the routes that must agree did not.

Every command starts from the image equation. Its branch factors are
written to a sidecar `<file>.gcache` keyed by the text of the declarations
and branch block; a later run still eliminates every branch and must find
the same factors, or it stops with exit code 1. The sidecar never stores
invariants — those are recomputed every time, disagreements included.
Asserted weights are checked on the image equation (`euler_degree`) before
any command does other work, so weights that do not make it weighted
homogeneous exit 1 at once.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError, ResourceLimitError
from .exprparse import parse_polynomial
from .gb import EMPTY, INFINITE
from .germfile import GermFile, declaration_lines, load_germ_file, load_limits
from .invariants import (
    ImageEquation, ae_codimension, bruce_roberts_number, euler_degree, ft_codim,
    curve_formula_check, ft_dimension, ft_ideal, full_report, image_equation,
    image_milnor_number, lc_ideal, milnor_number,
)
from .poly import Polynomial, VariableContext

_CACHE_MAGIC = "germinv.gcache.v1"


# -- output -------------------------------------------------------------------

# machine key -> human label; a key `<head>_<i>` is labelled `<label of head> <i>`
_LABELS = {
    "provenance": "provenance",
    "g": "image equation",
    "factor": "factor",
    "ft_codim": "ft codimension",
    "ft_dim": "ft quotient dimension",
    "gen": "generator",
    "mu_image": "image Milnor number",
    "mu_image_oracle": "slice-count oracle",
    "oracle_s0": "oracle sample s0",
    "samuel_profile": "Samuel profile",
    "stability": "stability",
    "mu_br": "Bruce-Roberts number",
    "cm_flag": "Cohen-Macaulay",
    "ae_codim": "Ae-codimension",
    "lc_substitution": "cotangent substitution",
    "lc_dim": "characteristic dimension",
    "lc_dim_expected": "expected dimension",
    "route_disagreement": "route disagreement",
    "milnor": "Milnor number",
}

# what a command prints: its (machine key, value) rows, warnings, exit code
_Output = Tuple[List[Tuple[str, object]], Sequence[str], int]


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


def _label(key: str) -> str:
    head, _, index = key.rpartition("_")
    return f"{_LABELS[head]} {index}" if index.isdigit() else _LABELS[key]


def _emit(fmt: str, schema: str, rows: Sequence[Tuple[str, object]],
          warnings: Sequence[str]) -> None:
    """`machine`: key=value lines, schema first and warnings last;
    `human`: the same rows as an aligned table of labels."""
    if fmt == "machine":
        print(f"schema={schema}")
        for key, value in rows:
            print(f"{key}={_fmt(value)}")
        print(f"warnings={len(warnings)}")
        for i, w in enumerate(warnings, 1):
            print(f"warning_{i}={w}")
        return
    labels = [_label(key) for key, _ in rows]
    width = max(map(len, labels), default=0)
    for label, (_, value) in zip(labels, rows):
        print(f"{label:<{width}}  {_fmt(value)}")
    for w in warnings:
        print(f"warning: {w}")


# -- config assembly ----------------------------------------------------------

def _resolve_config(gf: Optional[GermFile], args) -> ComputeConfig:
    """Precedence: defaults < germ-file overrides < --limits file < flags."""
    cfg = gf.config() if gf is not None else DEFAULT_CONFIG
    if getattr(args, "limits", None):
        cfg = cfg.with_overrides(**load_limits(args.limits))
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    return cfg


# -- image-equation cache -----------------------------------------------------

def _content_key(gf: GermFile) -> str:
    """The declarations and branches on one line. No name and no printed
    polynomial holds "; ", so two germs share a key only if they are equal."""
    return "; ".join(line.strip() for line in declaration_lines(gf.spec))


def _cache_load(path: str, key: str, gf: GermFile) -> Optional[List[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError):   # unreadable: recompute and rewrite
        return None
    if (lines[:2] != [_CACHE_MAGIC, f"key={key}"]
            or len(lines) != 2 + len(gf.spec.branches)
            or not all(line.startswith("factor=") for line in lines[2:])):
        return None
    return [line[len("factor="):] for line in lines[2:]]


def _cache_store(path: str, key: str, factors: Sequence[Polynomial]) -> None:
    """Write the sidecar through a temp file and a rename, so that a
    concurrent run reads either the old sidecar or the whole new one."""
    import tempfile   # sidecar writes only: a run that reads one never loads it
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
    if not use_cache:
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

def _cmd_image(G: ImageEquation, args) -> _Output:
    # the provenance row stays in schema v1; every image equation is eliminated
    rows: List[Tuple[str, object]] = [("provenance", "eliminated"), ("g", G.g)]
    rows += [(f"factor_{i}", f) for i, f in enumerate(G.factors, 1)]
    return rows, (), 0


def _cmd_ft(G: ImageEquation, args) -> _Output:
    gens = ft_ideal(G).basis()
    rows: List[Tuple[str, object]] = [("ft_codim", ft_codim(G)),
                                      ("ft_dim", ft_dimension(G))]
    rows += [(f"gen_{i}", p) for i, p in enumerate(gens, 1)]
    return rows, (), 0


def _cmd_mu_image(G: ImageEquation, args) -> _Output:
    mu = image_milnor_number(G)
    warnings = curve_formula_check(G, mu.multiplicity, "the multiplicity route gives")
    rows = [("mu_image", mu.multiplicity), ("samuel_profile", mu.profile),
            ("stability", "stable" if mu.multiplicity == 0 else "unstable")]
    return rows, warnings, 3 if warnings else 0


def _cmd_mu_br(G: ImageEquation, args) -> _Output:
    return [("mu_br", bruce_roberts_number(G))], (), 0


def _cmd_ae(G: ImageEquation, args) -> _Output:
    return [("ae_codim", ae_codimension(G))], (), 0


def _cmd_lc_check(G: ImageEquation, args) -> _Output:
    lc = lc_ideal(G)
    ok = lc.substitution_identity()
    dim = lc.certified_dimension()
    expected = len(G.ctx) + 1
    return ([("lc_substitution", ok), ("lc_dim", dim), ("lc_dim_expected", expected)],
            (), 0 if ok and dim == expected else 3)


def _cmd_report(G: ImageEquation, args) -> _Output:
    s0 = None
    if args.s0 is not None:
        try:
            s0 = Fraction(args.s0)
        except (ValueError, ZeroDivisionError):
            raise GermInputError(f"--s0 must be a rational, got {args.s0!r}") from None
    r = full_report(G, with_lc=args.with_lc, s0=s0)
    rows = [(key, value) for key, value in zip(r._fields, r)
            if key != "warnings" and (key != "lc_dim" or args.with_lc)]
    return rows, r.warnings, 3 if r.route_disagreement else 0


def _cmd_milnor(args) -> _Output:
    names = [n.strip() for n in args.vars.split(",") if n.strip()]
    if not names:
        raise GermInputError("--vars needs a comma-separated variable list")
    for n in names:
        if not n.isidentifier():
            raise GermInputError(f"--vars: bad variable name {n!r}")
    ctx = VariableContext.make(source=tuple(names))
    p = parse_polynomial(args.expression, ctx)
    return [("milnor", milnor_number(p, _resolve_config(None, args)))], (), 0


# the commands that read a germ file, each handed its image equation: name
# -> (command, help)
_FILE_COMMANDS = {
    "image": (_cmd_image, "compute and print the image equation"),
    "ft": (_cmd_ft, "transversality-failure ideal, codimension, dimension"),
    "mu-image": (_cmd_mu_image, "image Milnor number: the parameter's multiplicity "
                                "on the FT quotient, by saturation"),
    "mu-br": (_cmd_mu_br, "Bruce-Roberts number of the parameter projection"),
    "ae-codim": (_cmd_ae, "Ae-codimension (input must assert a stable unfolding)"),
    "lc-check": (_cmd_lc_check, "characteristic-locus dimension and substitution check"),
    "report": (_cmd_report, "all invariants, cross-checked"),
}


# -- argument surface ----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error is bad input, exit code 1; argparse's own exit code 2
    is the resource-limit code here. Subparsers reuse this class."""

    def error(self, message: str):
        raise GermInputError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="germinv",
        description="Invariants of polynomial map germs from their unfoldings")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_file: bool = True):
        if with_file:
            p.add_argument("file", help="germ description file")
            p.add_argument("--no-cache", action="store_true",
                           help="ignore and do not write the image-equation cache")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for sampled slice values")
        p.add_argument("--limits", default=None,
                       help="file of limit overrides (same keys as germ files)")
        p.add_argument("--format", choices=("human", "machine"),
                       default="human")

    for name, (_, help_) in _FILE_COMMANDS.items():
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
        rows, warnings, code = _cmd_milnor(args)
    else:
        gf = load_germ_file(args.file)
        G = _load_image(gf, args.file, _resolve_config(gf, args),
                        use_cache=not args.no_cache)
        if G.spec.weights is not None:
            euler_degree(G)    # bad asserted weights stop every command first
        command, _ = _FILE_COMMANDS[args.command]
        rows, warnings, code = command(G, args)
    _emit(args.format, f"germinv.{args.command}.v1", rows, warnings)
    return code


def console_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(argv)
    except GermInputError as e:           # ParseError included
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 2


def main() -> None:
    """The `germinv` command: `console_main`, then an exit that skips the
    interpreter's teardown (a full collection and every module's cleanup)."""
    try:
        code = console_main()
        sys.stdout.flush()
    except BrokenPipeError as e:
        code = 1
        print(f"error: cannot write the output: {e}", file=sys.stderr)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
