"""Invariants of parametrized hypersurface germs.

A map germ (C^n, S) -> (C^{n+1}, 0), given by one or more polynomial
branches together with a one-parameter unfolding, has as its image a
hypersurface {g = 0} in target-parameter space. Everything here is derived
from that single equation:

* the parameter components of the vector fields annihilating g generate the
  ideal measuring where the projection to the parameter axis fails to be
  transverse to the fibers (`ft_ideal`);
* the multiplicity of that ideal along the parameter counts the vanishing
  cycles of a nearby fiber (`image_milnor_number`); it is the colength of
  the ideal saturated by the parameter, plus the parameter, and an
  independent count of slice critical points (`slice_milnor_total`)
  cross-checks it;
* the fields merely tangent to {g = 0} give the finer Bruce-Roberts count
  (`bruce_roberts_number`) and, for stable unfoldings, the codimension of
  the germ's orbit (`ae_codimension`);
* pairing the same annihilating fields with cotangent coordinates cuts out
  the logarithmic characteristic locus (`lc_ideal`).

All verdicts are exact: dimensions come from certified truncations or
completed bases, never from numerics or a stopping heuristic, and the two
routes to the image Milnor number are computed independently and compared,
not reconciled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError, ResourceLimitError
from .gb import EMPTY, INFINITE, Ideal
from .orderings import OrderingSpec
from .poly import Polynomial, VariableContext
from .syzygy import SyzygyBasis, kernel_fields, parameter_part, tangent_fields

DEGREVLEX = OrderingSpec.degrevlex()
LOCAL = OrderingSpec.local()


# -- input specification -----------------------------------------------------

@dataclass(frozen=True)
class MapGermSpec:
    """A polynomial map germ with a one-parameter unfolding.

    Branches are (n+1)-tuples of polynomials in the source variables and the
    parameter; each branch is a germ at the origin of its own source copy,
    so multigerm inputs must be pre-translated. The flags are user
    assertions about the unfolding that the computations cannot verify; they
    gate the operations whose meaning depends on them.
    """

    source: Tuple[str, ...]
    target: Tuple[str, ...]
    parameter: str
    branches: Tuple[Tuple[Polynomial, ...], ...]
    image_g: Optional[Polynomial] = None
    is_stabilisation: bool = False
    is_stable_unfolding: bool = False
    weights: Optional[Mapping[str, int]] = None   # target+parameter weights

    def __post_init__(self):
        if len(self.target) != len(self.source) + 1:
            raise GermInputError("target needs exactly one more variable than source")
        if not self.branches:
            raise GermInputError("a germ needs at least one branch")
        sctx = self.source_ctx()
        for branch in self.branches:
            if len(branch) != len(self.target):
                raise GermInputError("branch length must match the target dimension")
            for p in branch:
                if p.ctx != sctx:
                    raise GermInputError("branch component over the wrong context")
                if p.constant_term():
                    raise GermInputError("branch component does not vanish at the origin")
        if self.image_g is not None and self.image_g.ctx != self.target_ctx():
            raise GermInputError("supplied image equation over the wrong context")

    def source_ctx(self) -> VariableContext:
        return VariableContext.make(source=self.source, parameter=(self.parameter,))

    def target_ctx(self) -> VariableContext:
        return VariableContext.make(target=self.target, parameter=(self.parameter,))


# -- image equation ----------------------------------------------------------

@dataclass
class ImageEquation:
    """The reduced equation of the image hypersurface, with provenance.

    Derived objects (field bases, cleaned generating sets) are cached here;
    every operation taking an ImageEquation shares them.
    """

    spec: MapGermSpec
    g: Polynomial
    provenance: str                      # "eliminated" | "user-supplied"
    factors: Tuple[Polynomial, ...]      # one per branch
    warnings: Tuple[str, ...]
    config: ComputeConfig = DEFAULT_CONFIG
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def ctx(self) -> VariableContext:
        return self.g.ctx


def _branch_image(branch: Sequence[Polynomial], spec: MapGermSpec,
                  cfg: ComputeConfig) -> Polynomial:
    """Principal generator of the branch's image, by eliminating the source."""
    ctx = VariableContext.make(source=spec.source, target=spec.target,
                               parameter=(spec.parameter,))
    gens = [Polynomial.variable(ctx, y) - p.rename(ctx)
            for y, p in zip(spec.target, branch)]
    elim = Ideal(ctx, gens, DEGREVLEX, cfg).elimination(spec.source)
    basis = elim.basis()
    if len(basis) != 1:
        raise GermInputError(
            "branch image is not a hypersurface (elimination ideal not principal); "
            "the branch is probably not generically finite")
    return basis[0]


def _univariate_squarefree(p: Dict[int, Fraction]) -> bool:
    """gcd(p, p') constant, for a univariate coefficient dict."""
    def degree(f):
        return max(f) if f else -1

    def rem(a, b):
        a = dict(a)
        db, lb = degree(b), b[max(b)]
        while a and degree(a) >= db:
            da, la = degree(a), a[max(a)]
            for e, c in b.items():
                t = e + da - db
                s = a.get(t, Fraction(0)) - la / lb * c
                if s:
                    a[t] = s
                else:
                    a.pop(t, None)
        return a

    dp = {e - 1: c * e for e, c in p.items() if e}
    a, b = p, dp
    while b:
        a, b = b, rem(a, b)
    return degree(a) <= 0


def _line_guard(g: Polynomial, seed: int) -> Optional[str]:
    """Probabilistic reducedness check: restrict g to random lines through 0.

    The origin itself is expected to be a multiple root (the germ is
    singular there), so the vanishing order at t = 0 is stripped before the
    squarefree test. Any line passing the test certifies nothing beyond
    plausibility; only repeated failures are reported, as a warning.
    """
    rng = random.Random(seed)
    n = len(g.ctx)
    for _ in range(3):
        direction = [rng.randint(1, 5) for _ in range(n)]
        uni: Dict[int, Fraction] = {}
        for exp, c in g.terms.items():
            d = sum(exp)
            w = c
            for e, v in zip(exp, direction):
                w *= Fraction(v) ** e
            uni[d] = uni.get(d, Fraction(0)) + w
        uni = {e: c for e, c in uni.items() if c}
        if not uni:
            continue   # line inside the hypersurface; try another
        low = min(uni)
        uni = {e - low: c for e, c in uni.items()}
        if _univariate_squarefree(uni):
            return None
    return ("image equation may be non-reduced: restrictions to sampled lines "
            "through the origin have repeated factors")


def image_equation(spec: MapGermSpec, config: ComputeConfig = DEFAULT_CONFIG,
                   cached_factors: Optional[Sequence[Polynomial]] = None
                   ) -> ImageEquation:
    """Equation of the image of the unfolding in target-parameter space.

    Each branch is eliminated separately; a multigerm image is the union of
    the branch images, so the generators are multiplied. Distinct branches
    must not share a component (the product would not be reduced) — checked
    by divisibility. A user-supplied equation skips elimination but not the
    composition check. `cached_factors` (one per branch, from a trusted
    cache) also skips only the elimination step: every validation below
    still runs against them.
    """
    warnings: List[str] = []
    if spec.image_g is not None:
        g = spec.image_g
        factors: Tuple[Polynomial, ...] = (g,)
        provenance = "user-supplied"
    else:
        if cached_factors is not None:
            if len(cached_factors) != len(spec.branches):
                raise GermInputError("cached factor count does not match branches")
            fs = list(cached_factors)
        else:
            fs = [_branch_image(b, spec, config) for b in spec.branches]
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                if Ideal(fs[j].ctx, [fs[j]], DEGREVLEX, config).contains(fs[i]) or \
                        Ideal(fs[i].ctx, [fs[i]], DEGREVLEX, config).contains(fs[j]):
                    raise GermInputError(
                        f"branches {i} and {j} share an image component; "
                        "the image equation would not be reduced")
        g = fs[0]
        for f in fs[1:]:
            g = g * f
        factors = tuple(fs)
        provenance = "eliminated"

    if g.constant_term():
        raise GermInputError("image equation does not vanish at the origin")
    sctx = spec.source_ctx()
    for i, branch in enumerate(spec.branches):
        bindings = dict(zip(spec.target, branch))
        if not g.substitute(bindings, target=sctx).is_zero():
            raise GermInputError(f"image equation does not vanish on branch {i}")

    note = _line_guard(g, config.seed)
    if note:
        warnings.append(note)
    return ImageEquation(spec, g, provenance, factors, tuple(warnings), config)


# -- shared derived objects --------------------------------------------------

def _kernel(G: ImageEquation) -> SyzygyBasis:
    if "kernel" not in G._cache:
        G._cache["kernel"] = kernel_fields(G.g, G.config)
    return G._cache["kernel"]


def _tangent(G: ImageEquation) -> SyzygyBasis:
    if "tangent" not in G._cache:
        G._cache["tangent"] = tangent_fields(G.g, G.config)
    return G._cache["tangent"]


def _ft_global(G: ImageEquation) -> List[Polynomial]:
    # reduced basis under a global order: same ideal, far smaller generators.
    # All downstream dimension counts are generating-set independent.
    if "ft_global" not in G._cache:
        raw = ft_ideal(G)
        G._cache["ft_global"] = Ideal(G.ctx, raw.gens, DEGREVLEX, G.config).basis()
    return G._cache["ft_global"]


def _br_global(G: ImageEquation) -> List[Polynomial]:
    if "br_global" not in G._cache:
        raw = parameter_part(_tangent(G), LOCAL, G.config)
        G._cache["br_global"] = Ideal(G.ctx, raw.gens, DEGREVLEX, G.config).basis()
    return G._cache["br_global"]


def _local_dim(ideal: Ideal, what: str, jet_start: Optional[int] = None) -> int:
    """Colength of a local-order handle. Only a proven INFINITE is bad input; an
    exhausted limit stays a resource error, prefixed with the stage."""
    try:
        d = ideal.quotient_dimension(jet_start)
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{what}: {exc}") from exc
    if d is INFINITE:
        raise GermInputError(f"{what} is infinite; input violates finiteness")
    return d


# -- transversality-failure ideal and its multiplicities ---------------------

def ft_ideal(G: ImageEquation) -> Ideal:
    """FT ideal: parameter components of the fields annihilating g.

    These fields span the directions along which the image is trivial; their
    parameter slots cut out the locus where the parameter projection is not
    a submersion off the discriminant. Returned over a local order. The
    handle normalizes its generator list (zero slots dropped, rest sorted);
    the cotangent pairing in `lc_ideal` re-derives the slots from the field
    basis, so nothing here depends on that order.
    """
    if "ft" not in G._cache:
        G._cache["ft"] = parameter_part(_kernel(G), LOCAL, G.config)
    return G._cache["ft"]


def ft_codim(G: ImageEquation) -> int:
    """dim of the local quotient by FT + (parameter); 0 exactly when stable."""
    if "ft_codim" not in G._cache:
        s = Polynomial.variable(G.ctx, G.spec.parameter)
        ft = Ideal(G.ctx, _ft_global(G) + [s], LOCAL, G.config)
        G._cache["ft_codim"] = _local_dim(ft, "ft codimension")
    return G._cache["ft_codim"]


def ft_dimension(G: ImageEquation):
    """Krull dimension of the quotient by FT, off the leading-term ideal.

    Read from the reduced basis under a global order; EMPTY for the unit
    ideal (stable germs). Unstable germs in this class have a curve of
    instability through the origin, so the expected value is 1 — the report
    checks, rather than assumes, this.
    """
    return Ideal(G.ctx, _ft_global(G), DEGREVLEX, G.config).dimension()


@dataclass(frozen=True)
class SamuelResult:
    multiplicity: int
    profile: Tuple[int, ...]


def samuel_multiplicity(I: Ideal, t: str,
                        config: ComputeConfig = DEFAULT_CONFIG) -> SamuelResult:
    """Multiplicity e of the ideal (t) on the local quotient A = O/I, with
    the profile d_k = dim A/t^k A.

    Needs A to be at most a curve (leading-term dimension <= 1). The t-torsion
    H = (I : t^inf)/I then has finite length and t is a nonzerodivisor on
    A/H, so e = dim O/((I : t^inf) + (t)) and d_k = k*e + dim H/t^k H. The
    increments d_{k+1} - d_k = e + dim t^k H/t^{k+1} H never increase, never
    drop below e, and stay at e once they reach it (Nakayama). Hence:

    * d_1 == e exactly when H = 0, that is when A is Cohen-Macaulay; then
      d_k = k*e is proven and the profile is reported as (e, 2e, 3e);
    * otherwise d_k is computed until an increment equals e, and the profile
      ends with that d_k.
    """
    ctx = I.ctx
    clean = Ideal(ctx, I.gens, DEGREVLEX, config)
    dim = clean.dimension()
    if dim is not EMPTY and dim > 1:
        raise GermInputError(
            f"parameter multiplicity needs a quotient of dimension <= 1, got {dim}")
    base = clean.basis()
    tvar = Polynomial.variable(ctx, t)

    def d(k: int) -> int:
        return _local_dim(Ideal(ctx, base + [tvar ** k], LOCAL, config),
                          f"multiplicity profile step k={k}", jet_start=6 + 2 * k)

    profile = [d(1)]
    sat = clean.saturation(tvar)
    e = _local_dim(Ideal(ctx, sat.gens + [tvar], LOCAL, config),
                   "multiplicity of the saturated quotient")
    if profile[0] == e:
        return SamuelResult(e, (e, 2 * e, 3 * e))
    while len(profile) < 2 or profile[-1] - profile[-2] > e:
        profile.append(d(len(profile) + 1))
    return SamuelResult(e, tuple(profile))


def image_milnor_number(G: ImageEquation) -> SamuelResult:
    """Number of vanishing cycles of a nearby fiber of the unfolding.

    Equals the parameter-multiplicity of the FT quotient. Zero exactly when
    the germ is stable, which is how the stability verdict is decided.
    Requires the unfolding to be asserted a stabilisation — whether nearby
    fibers really are stable is not machine-checkable here.
    """
    if not G.spec.is_stabilisation:
        raise GermInputError("image Milnor number needs is_stabilisation asserted")
    if "mu_image" not in G._cache:
        clean = Ideal(G.ctx, _ft_global(G), LOCAL, G.config)
        G._cache["mu_image"] = samuel_multiplicity(clean, G.spec.parameter, G.config)
    return G._cache["mu_image"]


# -- independent slice oracle ------------------------------------------------

def milnor_number(h: Polynomial, config: ComputeConfig = DEFAULT_CONFIG):
    """Local dimension of the Jacobian quotient at the origin; INFINITE for
    non-isolated singularities.

    The finite case is certified by jet truncation. When truncation gives
    out, the cause is decided exactly: the origin-centered components are
    stripped by saturating the Jacobian ideal at the maximal ideal, and the
    singularity is non-isolated precisely when the stripped ideal still
    vanishes at 0. A finite-but-huge answer beyond the jet bound stays a
    resource error rather than becoming a wrong INFINITE.
    """
    if h.is_zero():
        raise GermInputError("Milnor number of the zero polynomial")
    if h.constant_term():
        raise GermInputError("Milnor number needs a germ vanishing at the origin")
    ctx = h.ctx
    jac = [p for p in (h.partial(n) for n in ctx.names) if not p.is_zero()]
    try:
        return Ideal(ctx, jac, LOCAL, config).quotient_dimension()
    except ResourceLimitError:
        sat = Ideal(ctx, jac, DEGREVLEX, config)
        stripped = None
        for name in ctx.names:
            part = sat.saturation(Polynomial.variable(ctx, name))
            stripped = part if stripped is None else stripped.intersect(part)
        if all(p.constant_term() == 0 for p in stripped.basis()):
            return INFINITE
        raise


@dataclass(frozen=True)
class SliceResult:
    total: int                       # net count: raw minus baseline
    s0: Fraction
    raw: int                         # all off-slice critical points at s0
    baseline: int                    # those already present at parameter zero
    rejected: Tuple[Fraction, ...]   # sample points skipped: degenerate or outvoted


def _off_slice_count(G: ImageEquation, value: Fraction):
    """Total Milnor number of g_{s:=value}'s critical points off its zero set,
    over the whole affine target space: the global dimension of the
    coordinate ring modulo the Jacobian ideal saturated by the slice."""
    sname = G.spec.parameter
    ctx_y = G.ctx.drop([sname])
    sidx = G.ctx.index(sname)
    keep = [i for i in range(len(G.ctx)) if i != sidx]
    gs = G.g.substitute({sname: value})
    gsl = Polynomial(ctx_y, {tuple(e[i] for i in keep): c
                             for e, c in gs.terms.items()})
    jac = [p for p in (gsl.partial(n) for n in ctx_y.names) if not p.is_zero()]
    if not jac:
        return INFINITE
    sat = Ideal(ctx_y, jac, DEGREVLEX, G.config).saturation(gsl)
    return sat.quotient_dimension()


def slice_milnor_total(G: ImageEquation, s0: Optional[Fraction] = None,
                       seed: Optional[int] = None) -> SliceResult:
    """Total Milnor number of the critical points a nearby slice gains.

    Fixing the parameter at a small nonzero rational turns g into an
    equation g_{s0} on the target space alone; the critical points of g_{s0}
    away from {g_{s0} = 0} each contribute their Milnor number. This is the
    independent route to the image Milnor number — no vector fields, no
    parameter multiplicity — used to cross-check `image_milnor_number`,
    never to replace it.

    A polynomial representative may carry critical points far from the germ
    that have nothing to do with the deformation; they are already present
    in the parameter-zero slice, while the germ's own critical points merge
    into the singular image there. The count at parameter zero is therefore
    subtracted as a baseline. Both counts are global dimensions of the
    coordinate ring modulo the saturated Jacobian ideal; the far
    contribution is assumed not to jump between 0 and the sampled s0 —
    there is no effective bound for "small enough", so agreement of the two
    routes is the real certificate.

    An explicitly pinned `s0` is used as given (and refused if degenerate).
    Sampled values are only trusted once two distinct samples agree: the
    slice count is constant on a dense open set of parameter values, but an
    unlucky draw can land where critical points collide or fall onto the
    image and the count silently drops, so a single sample certifies
    nothing. Degenerate samples (infinite-dimensional quotient, or a count
    below the baseline) and outvoted ones are reported in `rejected`.
    """
    cfg = G.config
    rng = random.Random(cfg.seed if seed is None else seed)

    if "slice_base" not in G._cache:
        G._cache["slice_base"] = _off_slice_count(G, Fraction(0))
    base = G._cache["slice_base"]
    if base is INFINITE:
        raise GermInputError(
            "slice-count baseline is degenerate: the parameter-zero slice has a "
            "non-isolated critical locus off the image")

    if s0 is not None:
        if s0 == 0:
            raise GermInputError("slice parameter value must be nonzero")
        val = Fraction(s0)
        d = _off_slice_count(G, val)
        if d is INFINITE or d < base:
            raise GermInputError(
                f"pinned slice value {val} is degenerate (count {d}, "
                f"baseline {base}); pick another --s0 or let it be sampled")
        return SliceResult(d - base, val, d, base, ())

    rejected: List[Fraction] = []
    seen: List[Tuple[Fraction, int]] = []    # valid but so far unconfirmed
    for _ in range(cfg.s0_retries):
        a = rng.randint(1, cfg.coeff_bound)
        b = rng.randint(1, cfg.coeff_bound)
        val = Fraction(min(a, b), max(a, b))
        d = _off_slice_count(G, val)
        if d is INFINITE or d < base:
            rejected.append(val)
            continue
        for prev_val, prev_d in seen:
            if prev_d == d:
                outvoted = [v for v, c in seen if c != d]
                return SliceResult(d - base, prev_val, d, base,
                                   tuple(rejected + outvoted))
        seen.append((val, d))
    raise ResourceLimitError(
        "no two sampled slice values agreed on a count within "
        f"{cfg.s0_retries} tries (counts {[c for _, c in seen]}, "
        f"degenerate {rejected}); raise the retry budget")


# -- tangent-field invariants ------------------------------------------------

def bruce_roberts_number(G: ImageEquation) -> int:
    """Local dimension of the quotient by the parameter components of the
    fields tangent to the image (not merely annihilating its equation)."""
    if "mu_br" not in G._cache:
        br = Ideal(G.ctx, _br_global(G), LOCAL, G.config)
        G._cache["mu_br"] = _local_dim(br, "tangent-field quotient")
    return G._cache["mu_br"]


def ae_codimension(G: ImageEquation) -> int:
    """Codimension of the germ's orbit, read off a one-parameter stable
    unfolding: the tangent-field quotient with the parameter divided out.
    Only meaningful when the user asserts the unfolding is stable."""
    if not G.spec.is_stable_unfolding:
        raise GermInputError("ae codimension needs is_stable_unfolding asserted")
    s = Polynomial.variable(G.ctx, G.spec.parameter)
    ae = Ideal(G.ctx, _br_global(G) + [s], LOCAL, G.config)
    return _local_dim(ae, "ae codimension")


# -- logarithmic characteristic ideal ----------------------------------------

@dataclass
class LCIdeal:
    """Linear forms pairing the annihilating fields with cotangent coordinates.

    One generator per field: the field's target components multiply the p's,
    its parameter component multiplies q. Setting p := 0, q := 1 therefore
    recovers the parameter slots of the fields — the FT generators — kept as
    an executable invariant.
    """

    ideal: Ideal
    gens: Tuple[Polynomial, ...]  # one per kernel field, in field order;
                                  # the handle above resorts and drops zeros
    cotangent: Tuple[str, ...]    # p-names then q-name
    base: ImageEquation

    def substitution_identity(self) -> bool:
        """p := 0, q := 1 maps each generator onto its field's parameter slot.

        Checked against the field basis itself (zero slots included), not the
        FT ideal handle, whose generator list is normalized."""
        bindings: Dict[str, int] = {n: 0 for n in self.cotangent[:-1]}
        bindings[self.cotangent[-1]] = 1
        ctx = self.ideal.ctx
        kern = _kernel(self.base)
        slots = [v[len(self.base.ctx) - 1] for v in kern.elements]
        if len(slots) != len(self.gens):
            return False
        for xi, b in zip(self.gens, slots):
            if xi.substitute(bindings) != b.rename(ctx):
                return False
        return True

    def certified_dimension(self) -> int:
        """Dimension of the characteristic locus, certified from two sides.

        Every generator vanishes on (b, t·grad g(b)) for all base points b
        and scalars t, because the fields annihilate g identically; that
        graph has dimension (n+2)+1, a free lower bound. The basis loop's
        accumulated leads bound the dimension from above and only shrink, so
        the loop stops the moment the bound meets the graph dimension. A
        completed basis returns the exact dimension either way.
        """
        expected = len(self.base.ctx) + 1
        return self.ideal.dimension_bound(expected)


def lc_ideal(G: ImageEquation) -> LCIdeal:
    if "lc" not in G._cache:
        ctx = G.ctx
        pnames = [ctx.fresh_name(f"p{i + 1}") for i in range(len(ctx) - 1)]
        qname = ctx.fresh_name("q")
        ext = ctx.extend(pnames + [qname], "cotangent")
        covars = [Polynomial.variable(ext, n) for n in pnames + [qname]]
        gens = []
        for v in _kernel(G).elements:
            acc = Polynomial.zero(ext)
            for comp, cv in zip(v, covars):
                acc = acc + comp.rename(ext) * cv
            gens.append(acc)
        handle = Ideal(ext, gens, DEGREVLEX, G.config)
        G._cache["lc"] = LCIdeal(handle, tuple(gens), tuple(pnames) + (qname,), G)
    return G._cache["lc"]


# -- quasi-homogeneous checks ------------------------------------------------

def euler_degree(G: ImageEquation) -> int:
    """Validate the asserted weights: g must be weighted homogeneous and the
    weighted Euler field must reproduce (wdeg g) * g. Returns wdeg g."""
    if G.spec.weights is None:
        raise GermInputError("no weights asserted")
    w = dict(G.spec.weights)
    missing = [n for n in G.ctx.names if n not in w]
    if missing:
        raise GermInputError(f"weights missing for {missing}")
    if any(int(v) <= 0 for v in w.values()):
        raise GermInputError("weights must be positive integers")
    degs = set(G.g.weighted_degrees(w))
    if len(degs) != 1:
        raise GermInputError("asserted weights do not make the image equation "
                             "weighted homogeneous")
    d = degs.pop()
    euler = Polynomial.zero(G.ctx)
    for n in G.ctx.names:
        euler = euler + G.g.partial(n) * Polynomial.variable(G.ctx, n) * w[n]
    if euler != G.g * d:
        raise GermInputError("weighted Euler field does not reproduce the "
                             "image equation; weights rejected")
    return d


def euler_ideal_identity(G: ImageEquation) -> bool:
    """Under valid weights the tangent-field quotient ideal collapses:
    it equals FT + (parameter). Certified by mutual normal-form containment
    of the generators. Both ideals are weighted homogeneous here, so the
    affine containments and the germ-level ones agree."""
    euler_degree(G)
    s = Polynomial.variable(G.ctx, G.spec.parameter)
    a = Ideal(G.ctx, _br_global(G), DEGREVLEX, G.config)
    b = Ideal(G.ctx, _ft_global(G) + [s], DEGREVLEX, G.config)
    return (all(a.contains(p) for p in b.gens)
            and all(b.contains(q) for q in a.gens))


# -- report ------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantReport:
    mu_image: int
    mu_image_oracle: Optional[int]
    ft_codim: int
    mu_br: Optional[int]
    cm_flag: bool
    stability: str                    # "stable" | "unstable"
    ae_codim: Optional[int]
    samuel_profile: Tuple[int, ...]
    ft_dim: object                    # 0, 1, or EMPTY
    lc_dim: Optional[int]
    oracle_s0: Optional[Fraction]
    warnings: Tuple[str, ...]
    route_disagreement: bool = False  # two routes to the same number differed


def full_report(spec: MapGermSpec, config: ComputeConfig = DEFAULT_CONFIG,
                with_lc: bool = True, s0: Optional[Fraction] = None,
                image: Optional[ImageEquation] = None) -> InvariantReport:
    """Compute every invariant and cross-check; disagreements become
    warnings, never silent preferences. `s0` pins the slice sample point;
    `image` reuses an already-built (possibly cache-backed) equation."""
    G = image if image is not None else image_equation(spec, config)
    warnings = list(G.warnings)
    disagreement = False

    codim = ft_codim(G)
    mu = image_milnor_number(G)
    stability = "stable" if mu.multiplicity == 0 else "unstable"
    if (codim == 0) != (mu.multiplicity == 0):
        disagreement = True
        warnings.append("stability verdicts disagree: ft codimension "
                        f"{codim} vs multiplicity {mu.multiplicity}")
    if mu.multiplicity > codim:
        warnings.append(f"multiplicity {mu.multiplicity} exceeds ft codimension "
                        f"{codim}; the quotient should be at worst a curve")
    cm_flag = mu.multiplicity == codim

    oracle = slice_milnor_total(G, s0=s0)
    if oracle.total != mu.multiplicity:
        disagreement = True
        warnings.append(
            f"independent slice count {oracle.total} (at s0={oracle.s0}) does not "
            f"match the multiplicity route {mu.multiplicity}")

    mu_br = bruce_roberts_number(G)
    ae = ae_codimension(G) if spec.is_stable_unfolding else None

    fdim = ft_dimension(G)
    if stability == "stable":
        if fdim is not EMPTY:
            warnings.append("stable germ but the FT ideal is not the unit ideal")
    elif fdim != 1:
        warnings.append(f"unstable germ but the FT quotient has dimension {fdim}, "
                        "expected a curve")

    lc_dim = None
    if with_lc:
        lc = lc_ideal(G)
        if not lc.substitution_identity():
            disagreement = True
            warnings.append("cotangent substitution did not recover the FT generators")
        lc_dim = lc.certified_dimension()
        if lc_dim != len(G.ctx) + 1:
            warnings.append(f"characteristic locus has dimension {lc_dim}, "
                            f"expected {len(G.ctx) + 1}")

    if spec.weights is not None:
        if euler_ideal_identity(G):
            if ae is not None and ae != codim:
                warnings.append("weighted-homogeneous germ but ae codimension "
                                f"{ae} differs from ft codimension {codim}")
        else:
            warnings.append("weighted-Euler ideal identity failed despite valid weights")

    return InvariantReport(
        mu_image=mu.multiplicity,
        mu_image_oracle=oracle.total,
        ft_codim=codim,
        mu_br=mu_br,
        cm_flag=cm_flag,
        stability=stability,
        ae_codim=ae,
        samuel_profile=mu.profile,
        ft_dim=fdim,
        lc_dim=lc_dim,
        oracle_s0=oracle.s0,
        warnings=tuple(warnings),
        route_disagreement=disagreement,
    )
