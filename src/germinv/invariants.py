"""Invariants of parametrized hypersurface germs.

A map germ (C^n, S) -> (C^{n+1}, 0), given by one or more polynomial
branches together with a one-parameter unfolding, has as its image a
hypersurface {g = 0} in target-parameter space. Everything here is derived
from that single equation:

* the parameter components of the vector fields annihilating g generate the
  ideal measuring where the projection to the parameter axis fails to be
  transverse to the fibers (`ft_ideal`), one global handle whose reduced
  basis is computed once and read by every count of that ideal. A field
  sum a_i dg/dy_i + a_s dg/ds annihilates g exactly when a_s dg/ds lies in
  (dg/dy), so that ideal is the quotient (dg/dy) : dg/ds, computed by one
  syzygy run that tracks a single slot (`syzygy.ideal_quotient`);
* the multiplicity of that ideal along the parameter counts the vanishing
  cycles of a nearby fiber (`image_milnor_number`); it is the colength of
  the ideal saturated by the parameter, plus the parameter, and an
  independent count of slice critical points (`slice_milnor_total`)
  cross-checks it;
* the fields merely tangent to {g = 0} give, through a second such handle,
  the quotient (dg/dy, g) : dg/ds, the finer Bruce-Roberts count
  (`bruce_roberts_number`) and, for stable unfoldings, the codimension of
  the germ's orbit (`ae_codimension`);
* pairing the same annihilating fields with cotangent coordinates cuts out
  the logarithmic characteristic locus (`lc_ideal`).

All verdicts are exact: dimensions come from completed bases, never from
numerics or a stopping heuristic, and the two routes to the image Milnor
number are computed independently and compared, not reconciled.
"""

from __future__ import annotations

import gc
import os
import pickle
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError, ResourceLimitError
from .exprparse import parse_polynomial
from .gb import EMPTY, INFINITE, Ideal, _intify, local_colength
from .poly import Polynomial, Record, VariableContext
from .syzygy import Vector, ideal_quotient, kernel_fields, parameter_part

# -- input specification -----------------------------------------------------

class MapGermSpec(Record):
    """A polynomial map germ with a one-parameter unfolding.

    Branches are (n+1)-tuples of polynomials in the source variables and the
    parameter; each branch is a germ at the origin of its own source copy,
    so multigerm inputs must be pre-translated. The flags are user
    assertions about the unfolding that the computations cannot verify; they
    gate the operations whose meaning depends on them. Asserted weights name
    exactly the target and parameter variables, each with a positive `int`.

    A `Record`, so equal specs compare equal; a spec is not hashable.
    """

    __slots__ = ("source", "target", "parameter", "branches",
                 "is_stabilisation", "is_stable_unfolding",
                 "weights")   # target+parameter weights, or None

    def __init__(self, source: Tuple[str, ...], target: Tuple[str, ...], parameter: str,
                 branches: Tuple[Tuple[Polynomial, ...], ...],
                 is_stabilisation: bool = False, is_stable_unfolding: bool = False,
                 weights: Optional[Mapping[str, int]] = None):
        self._fill(source, target, parameter, branches, is_stabilisation,
                   is_stable_unfolding, weights)
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
        if self.weights is not None:
            weighted = self.target_ctx().names
            unknown = [n for n in self.weights if n not in weighted]
            if unknown:
                raise GermInputError(f"weight for unknown variable {unknown[0]!r}")
            missing = [n for n in weighted if n not in self.weights]
            if missing:
                raise GermInputError(f"weights missing for {missing}")
            # not bool, and not another int subclass, whose print may be a name
            if any(type(v) is not int or v <= 0 for v in self.weights.values()):
                raise GermInputError("weights must be positive integers")

    def source_ctx(self) -> VariableContext:
        return VariableContext.make(source=self.source, parameter=(self.parameter,))

    def target_ctx(self) -> VariableContext:
        return VariableContext.make(target=self.target, parameter=(self.parameter,))


# -- image equation ----------------------------------------------------------

class ImageEquation:
    """The reduced equation of the image hypersurface.

    Derived objects are cached here, and every operation taking an
    ImageEquation shares them. A copy under another config,
    `ImageEquation(G.spec, G.g, G.factors, config)`, starts with an empty
    cache, so a tighter config is obeyed rather than answered from the
    original's results.
    """

    __slots__ = ("spec", "g", "factors", "config", "_cache")

    def __init__(self, spec: MapGermSpec, g: Polynomial, factors: Tuple[Polynomial, ...],
                 config: ComputeConfig = DEFAULT_CONFIG):
        self.spec = spec
        self.g = g
        self.factors = factors      # one per branch
        self.config = config
        self._cache: dict = {}

    @property
    def ctx(self) -> VariableContext:
        return self.g.ctx


def _branch_image(branch: Sequence[Polynomial], spec: MapGermSpec,
                  cfg: ComputeConfig) -> Ideal:
    """The branch's image ideal over target and parameter: its graph ideal
    (y - f(x, s)) with the source eliminated (Cox, Little and O'Shea,
    Ideals, Varieties, and Algorithms, 3.3).

    Since Q[x, y, s]/(y - f) is Q[x, s], a polynomial g in y and s lies in
    the graph ideal, and so in this one, exactly when g(f(x, s), s) = 0,
    that is when g vanishes on the branch.
    """
    ctx = VariableContext.make(source=spec.source, target=spec.target,
                               parameter=(spec.parameter,))
    gens = [Polynomial.variable(ctx, y) - p.rename(ctx)
            for y, p in zip(spec.target, branch)]
    return Ideal(ctx, gens, cfg).elimination(spec.source)


def image_equation(spec: MapGermSpec, config: ComputeConfig = DEFAULT_CONFIG,
                   cached_factors: Optional[Sequence[str]] = None
                   ) -> ImageEquation:
    """Equation of the image of the unfolding in target-parameter space.

    Each branch image (`_branch_image`) must be principal, and its generator
    is the branch's factor; a multigerm image is the union of the branch
    images, so the factors are multiplied. An eliminated factor is reduced
    by construction: the graph ideal is prime, so its contraction is prime
    and its monic generator irreducible. Two branches therefore share an
    image component exactly when their factors are equal, and the product
    would then not be reduced. `cached_factors` (one text per branch, read
    from a `.gcache` sidecar) must equal the eliminated factors: a text
    that is not the factor's own print is parsed, and a `ParseError` means
    a stale sidecar. Each factor generates its branch image, which passes
    through the origin, so g vanishes there and on every branch.
    """
    factors = []
    for b in spec.branches:
        basis = _branch_image(b, spec, config).basis()
        if len(basis) != 1:
            raise GermInputError(
                "branch image is not a hypersurface (elimination ideal not "
                "principal); the branch is probably not generically finite")
        factors.append(basis[0])
    if cached_factors is not None and factors != [
            f if str(f) == text else parse_polynomial(text, f.ctx)
            for f, text in zip(factors, cached_factors)]:
        raise GermInputError(
            "the image factors in the .gcache sidecar differ from the "
            "eliminated ones; delete the sidecar")
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if factors[i] == factors[j]:
                raise GermInputError(
                    f"branches {i} and {j} share an image component; "
                    "the image equation would not be reduced")
    g = factors[0]
    for f in factors[1:]:
        g = g * f
    return ImageEquation(spec, g, tuple(factors), config)


# -- shared derived objects --------------------------------------------------

def _dg(G: ImageEquation) -> Tuple[Polynomial, Tuple[Polynomial, ...]]:
    """The primitive integer multiple of g, a positive one, and its partials
    in context order, free of Fraction arithmetic. No ideal, quotient,
    saturation or syzygy module changes when its generators are scaled by one
    positive constant; `G.g` stays monic, as `image` prints it."""
    if "dg" not in G._cache:
        g = Polynomial._raw(G.ctx, _intify(G.g.terms))
        G._cache["dg"] = g, tuple(g.partial(n) for n in G.ctx.names)
    return G._cache["dg"]


def _kernel(G: ImageEquation) -> List[Vector]:
    if "kernel" not in G._cache:
        G._cache["kernel"] = kernel_fields(_dg(G)[0], G.config)
    return G._cache["kernel"]


def _br_ideal(G: ImageEquation) -> Ideal:
    """Bruce-Roberts ideal: parameter components of the fields tangent to
    the image, as a global handle (see `ft_ideal`).

    A field with parameter slot a is tangent when a*dg/ds lies in
    (dg/dy, g), its other slots and the cofactor of g supplying the rest, so
    the ideal is the quotient (dg/dy, g) : dg/ds.
    """
    if "br" not in G._cache:
        G._cache["br"] = _slot_quotient(G, (_dg(G)[0],), "tangent-field ideal")
    return G._cache["br"]


@contextmanager
def _stage(what: str):
    """An exhausted limit stays a resource error, its message prefixed with
    `what` and its attributes kept."""
    try:
        yield
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{what}: {exc}", exc.stage, exc.limit, exc.value) from exc


def _slot_quotient(G: ImageEquation, extra: Tuple[Polynomial, ...], what: str) -> Ideal:
    """(dg/dy, extra) : dg/ds over the target coordinates y, its reduced
    basis computed at once, so a budget error of either run names `what`."""
    dg, s = _dg(G)[1], G.ctx.parameter_index()
    with _stage(what):
        quotient = ideal_quotient(dg[:s] + dg[s + 1:] + extra, dg[s], G.config)
        quotient.basis()
    return quotient


def _local_dim(ctx: VariableContext, gens: Sequence[Polynomial],
               config: ComputeConfig, what: str) -> int:
    """`local_colength` of the generators. Only a proven INFINITE is bad input;
    an exhausted limit is named by `_stage`."""
    with _stage(what):
        d = local_colength(ctx, gens, config)
    if d is INFINITE:
        raise GermInputError(f"{what} is infinite; input violates finiteness")
    return d


def _local_dim_at_zero(ctx: VariableContext, gens: Sequence[Polynomial], t: str,
                       config: ComputeConfig, what: str) -> int:
    """`_local_dim` of the generators plus t, counted at t = 0: the germs
    modulo I + (t) are the germs of the other variables modulo I with
    t = 0, and that count runs over one variable fewer."""
    return _local_dim(ctx.drop([t]), [g.specialize({t: 0}) for g in gens], config, what)


# -- transversality-failure ideal and its multiplicities ---------------------

def ft_ideal(G: ImageEquation) -> Ideal:
    """FT ideal: parameter components of the fields annihilating g.

    These fields span the directions along which the image is trivial; their
    parameter slots cut out the locus where the parameter projection is not
    a submersion off the discriminant. A polynomial a is such a slot exactly
    when a*dg/ds = -sum b_i dg/dy_i for some b, that is when a lies in the
    ideal quotient (dg/dy_1, ..., dg/dy_(n+1)) : dg/ds; that quotient is
    computed directly, with no field basis. Returned as one global
    (degrevlex) handle per equation, whose reduced basis is computed once;
    every count here reads that basis, and `LCIdeal.substitution_identity`
    checks it against the parameter slots of the kernel fields.
    """
    if "ft" not in G._cache:
        G._cache["ft"] = _slot_quotient(G, (), "ft ideal")
    return G._cache["ft"]


def ft_codim(G: ImageEquation) -> int:
    """dim of the local quotient by FT + (parameter); 0 exactly when stable."""
    if "ft_codim" not in G._cache:
        G._cache["ft_codim"] = _local_dim_at_zero(G.ctx, ft_ideal(G).basis(),
                                                  G.spec.parameter, G.config, "ft codimension")
    return G._cache["ft_codim"]


def ft_dimension(G: ImageEquation):
    """Krull dimension of the quotient by FT, off the leading-term ideal.

    Read from the cached reduced basis of `ft_ideal`; EMPTY for the unit
    ideal (stable germs). Unstable germs in this class have a curve of
    instability through the origin, so the expected value is 1 — the report
    checks, rather than assumes, this.
    """
    return ft_ideal(G).dimension()


class SamuelResult(NamedTuple):
    multiplicity: int
    profile: Tuple[int, ...]


def samuel_multiplicity(I: Ideal, t: str) -> SamuelResult:
    """Multiplicity e of the ideal (t) on the local quotient A = O/I, with
    the profile d_k = dim A/t^k A.

    I is a handle of the polynomial ring, read under its config. Every
    colength is a `local_colength` of its reduced basis, or of its
    saturation by t, plus a power of t; those plus t itself are counted at
    t = 0, over the other variables.

    Needs A to be at most a curve (leading-term dimension <= 1). The t-torsion
    H = (I : t^inf)/I then has finite length and t is a nonzerodivisor on
    A/H, so e = dim O/((I : t^inf) + (t)) and d_k = k*e + dim H/t^k H. The
    increments d_{k+1} - d_k = e + dim t^k H/t^{k+1} H never increase, never
    drop below e, and stay at e once they reach it (Nakayama). Hence:

    * d_1 == e exactly when H = 0, that is when A is Cohen-Macaulay; then
      d_k = k*e is proven and the profile is reported as (e, 2e, 3e). When
      the saturation hands back I's own reduced basis (its first quotient
      reduces to zero by that basis), H = 0 is seen without a second
      colength;
    * otherwise d_k is computed until an increment equals e, and the profile
      ends with that d_k.
    """
    ctx, config = I.ctx, I.config
    dim = I.dimension()
    if dim is not EMPTY and dim > 1:
        raise GermInputError(
            f"parameter multiplicity needs a quotient of dimension <= 1, got {dim}")
    base = I.basis()
    tvar = Polynomial.variable(ctx, t)

    def d(k: int) -> int:
        return _local_dim(ctx, base + [tvar ** k], config,
                          f"multiplicity profile step k={k}")

    profile = [_local_dim_at_zero(ctx, base, t, config, "multiplicity profile step k=1")]
    with _stage("multiplicity saturation"):
        sat = I.saturation(tvar)
    # I saturated already (H = 0): e is the colength d_1 just computed
    e = profile[0] if sat.gens == base else _local_dim_at_zero(
        ctx, sat.gens, t, config, "multiplicity of the saturated quotient")
    if profile[0] == e:
        return SamuelResult(e, (e, 2 * e, 3 * e))
    while len(profile) < 2 or profile[-1] - profile[-2] > e:
        profile.append(d(len(profile) + 1))
    return SamuelResult(e, tuple(profile))


def image_milnor_number(G: ImageEquation) -> SamuelResult:
    """Number of vanishing cycles of a nearby fiber of the unfolding.

    Equals the parameter-multiplicity of the FT quotient. Zero exactly when
    the germ is stable, which is how the stability verdict is decided. The
    first profile entry d_1 is `ft_codim`. Requires the unfolding to be
    asserted a stabilisation — whether nearby fibers really are stable is
    not machine-checkable here.
    """
    if not G.spec.is_stabilisation:
        raise GermInputError("image Milnor number needs is_stabilisation asserted")
    if "mu_image" not in G._cache:
        G._cache["mu_image"] = samuel_multiplicity(ft_ideal(G), G.spec.parameter)
    return G._cache["mu_image"]


# -- independent slice oracle ------------------------------------------------

def milnor_number(h: Polynomial, config: ComputeConfig = DEFAULT_CONFIG):
    """Local dimension of the Jacobian quotient at the origin; INFINITE for
    non-isolated singularities.

    One `local_colength` of the partials. Both answers are exact: the
    colength is the staircase of the leads of a local standard basis, and
    it is infinite precisely when the local quotient has positive
    dimension, that is, when the singularity is not isolated.
    """
    if h.is_zero():
        raise GermInputError("Milnor number of the zero polynomial")
    if h.constant_term():
        raise GermInputError("Milnor number needs a germ vanishing at the origin")
    return local_colength(h.ctx, [h.partial(n) for n in h.ctx.names], config)


SLICE_COEFF_BOUND = 100   # numerator/denominator bound for sampled slice values


class SliceResult(NamedTuple):
    total: int                       # net count: raw minus baseline
    s0: Fraction
    raw: int                         # all off-slice critical points at s0
    baseline: int                    # those already present at parameter zero
    rejected: Tuple[Fraction, ...]   # sample points skipped: degenerate or outvoted


def _off_slice_count(G: ImageEquation, value: Fraction):
    """Total Milnor number of g_{s:=value}'s critical points off its zero set,
    over the whole affine target space: the global dimension of the
    coordinate ring modulo the Jacobian ideal saturated by the slice.

    The slice is taken with its denominators cleared (`_intify`, a positive
    multiple, which changes neither ideal), so its partials and the
    saturation's inputs carry no Fraction arithmetic."""
    gsl = _dg(G)[0].specialize({G.spec.parameter: value})
    gsl = Polynomial._raw(gsl.ctx, _intify(gsl.terms))
    jac = [p for p in (gsl.partial(n) for n in gsl.ctx.names) if not p.is_zero()]
    if not jac:
        return INFINITE
    with _stage(f"slice saturation at s0={value}"):
        sat = Ideal(gsl.ctx, jac, G.config).saturation(gsl)
    return sat.quotient_dimension()


def slice_milnor_total(G: ImageEquation, s0: Optional[Fraction] = None) -> SliceResult:
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
    rng = random.Random(cfg.seed)

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
        a = rng.randint(1, SLICE_COEFF_BOUND)
        b = rng.randint(1, SLICE_COEFF_BOUND)
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
        f"degenerate {rejected}); raise the retry budget",
        "slice sampling", "s0_retries", cfg.s0_retries)


# -- tangent-field invariants ------------------------------------------------

def bruce_roberts_number(G: ImageEquation) -> int:
    """Local dimension of the quotient by the parameter components of the
    fields tangent to the image (not merely annihilating its equation)."""
    if "mu_br" not in G._cache:
        G._cache["mu_br"] = _local_dim(G.ctx, _br_ideal(G).basis(), G.config,
                                       "tangent-field quotient")
    return G._cache["mu_br"]


def ae_codimension(G: ImageEquation) -> int:
    """Codimension of the germ's orbit, read off a one-parameter stable
    unfolding: the tangent-field quotient with the parameter divided out.
    Only meaningful when the user asserts the unfolding is stable."""
    if not G.spec.is_stable_unfolding:
        raise GermInputError("ae codimension needs is_stable_unfolding asserted")
    return _local_dim_at_zero(G.ctx, _br_ideal(G).basis(), G.spec.parameter, G.config,
                              "ae codimension")


# -- logarithmic characteristic ideal ----------------------------------------

class LCIdeal(NamedTuple):
    """Linear forms pairing the annihilating fields with cotangent coordinates.

    One generator per field: the field's target components multiply the p's,
    its parameter component multiplies q. Setting p := 0, q := 1 therefore
    recovers the parameter slots of the fields, which generate the FT ideal;
    both facts are kept as an executable invariant.
    """

    ideal: Ideal
    gens: Tuple[Polynomial, ...]  # one per kernel field, in field order;
                                  # the handle above resorts and drops zeros
    cotangent: Tuple[str, ...]    # p-names then q-name
    base: ImageEquation

    def substitution_identity(self) -> bool:
        """p := 0, q := 1 maps each generator onto its field's parameter
        slot, and those slots generate the FT ideal.

        The first half is checked against the field basis itself (zero slots
        included). The second compares two routes: the reduced basis of the
        slots against that of the quotient `ft_ideal` computes, which share
        no syzygy run."""
        values: Dict[str, int] = {n: 0 for n in self.cotangent[:-1]}
        values[self.cotangent[-1]] = 1
        G = self.base
        kern = _kernel(G)
        pidx = G.ctx.parameter_index()
        if len(kern) != len(self.gens):
            return False
        for xi, v in zip(self.gens, kern):
            if xi.specialize(values) != v[pidx]:
                return False
        return parameter_part(G.ctx, kern, G.config).basis() == ft_ideal(G).basis()

    def certified_dimension(self) -> int:
        """Dimension of the characteristic locus, certified from two sides.

        Lower bound: every generator vanishes on (b, t·grad g(b)) for all
        base points b and scalars t, because the fields annihilate g
        identically; that graph has dimension N + 1, N = n + 2 the number
        of base coordinates.

        Upper bound, by the rank strata of the kernel-field matrix A (one
        row per field; K. Saito, J. Fac. Sci. Univ. Tokyo 27 (1980), as
        used by Granger, Mond, Nieto and Schulze, Ann. Inst. Fourier 59
        (2009)): V(LC) = {(b, xi) : A(b) xi = 0}, whose fibre over a point
        where A has rank r is a linear space of dimension N - r, so
        dim V(LC) = max_r (dim{rank A <= r} + N - r). `_rank_strata_bound`
        proves every term at most N + 1 from ideals over the N base
        coordinates alone. When it cannot, the basis loop of the LC ideal
        over 2N coordinates runs with the graph dimension as its stop: its
        accumulated leads bound the dimension from above and only shrink,
        and a completed basis gives the exact dimension.
        """
        expected = len(self.base.ctx) + 1
        if _rank_strata_bound(self.base):
            return expected
        return self.ideal.dimension_bound(expected)


def _rank_strata_bound(G: ImageEquation) -> bool:
    """True when dim{rank A <= r} + N - r <= N + 1 is proven for every r,
    A the kernel-field matrix of `G` (`LCIdeal.certified_dimension`).

    The fields generate the syzygies of grad g over the polynomial ring, the
    Koszul ones g_j e_i - g_i e_j included, so at a base point b where
    grad g(b) != 0 their values span the hyperplane orthogonal to
    grad g(b): rank A = N - 1 there, and rank A <= N - 1 everywhere since
    A grad g = 0. Every {rank A <= r} with r <= N - 2 therefore lies in the
    critical locus C = V(dg/dy, dg/ds). Stratum by stratum:

    * r >= N - 1: the fibres are at most lines over at most N dimensions.
    * r = N - 2: C lies in the finitely many level sets of g at its
      critical values, so it has dimension at most N - 1.
    * r = 0: dim V(I_1(A)) <= 1, I_1 the ideal of the entries.
    * r = 1..N-3: dim C <= 2 <= r + 1.

    Each dimension is `dimension_bound`, stopped once it reaches its bound.
    False, and nothing claimed, when a step falls short or exhausts a limit.
    """
    ctx, cfg = G.ctx, G.config

    def within(gens: List[Polynomial], bound: int) -> bool:
        d = Ideal(ctx, gens, cfg).dimension_bound(bound)
        return d is EMPTY or d <= bound

    try:
        if not within([p for v in _kernel(G) for p in v], 1):
            return False
        return len(ctx) <= 3 or within(list(_dg(G)[1]), 2)
    except ResourceLimitError:
        return False


def lc_ideal(G: ImageEquation) -> LCIdeal:
    if "lc" not in G._cache:
        ctx = G.ctx
        pnames = [ctx.fresh_name(f"p{i + 1}") for i in range(len(ctx) - 1)]
        qname = ctx.fresh_name("q")
        ext = ctx.extend(pnames + [qname], "cotangent")
        covars = [Polynomial.variable(ext, n) for n in pnames + [qname]]
        gens = [sum((comp.rename(ext) * cv for comp, cv in zip(v, covars)),
                    Polynomial.zero(ext)) for v in _kernel(G)]
        handle = Ideal(ext, gens, G.config)
        G._cache["lc"] = LCIdeal(handle, tuple(gens), tuple(pnames) + (qname,), G)
    return G._cache["lc"]


# -- quasi-homogeneous checks ------------------------------------------------

def euler_degree(G: ImageEquation) -> int:
    """Validate the asserted weights, which the spec holds complete and
    positive: g must be weighted homogeneous. Returns wdeg g. By Euler's
    identity the weighted Euler field then maps g to (wdeg g) * g."""
    if G.spec.weights is None:
        raise GermInputError("no weights asserted")
    degs = G.g.weighted_degrees(G.spec.weights)
    if len(degs) != 1:
        raise GermInputError("asserted weights do not make the image equation "
                             "weighted homogeneous")
    return degs[0]


def euler_ideal_identity(G: ImageEquation) -> bool:
    """Under valid weights the tangent-field quotient ideal collapses:
    it equals FT + (parameter). Certified by equal reduced degrevlex bases,
    which are unique (and monic), so equal ideals give equal lists. Both
    ideals are weighted homogeneous here, so the affine equality and the
    germ-level one agree."""
    euler_degree(G)
    s = Polynomial.variable(G.ctx, G.spec.parameter)
    ft_s = Ideal(G.ctx, ft_ideal(G).basis() + [s], G.config)
    return _br_ideal(G).basis() == ft_s.basis()


# -- report ------------------------------------------------------------------

class InvariantReport(NamedTuple):
    """The report; its fields, in order, are the rows of `germinv report`."""

    mu_image: int
    mu_image_oracle: Optional[int]
    oracle_s0: Optional[Fraction]
    ft_codim: int
    ft_dim: object                    # 0, 1, or EMPTY
    mu_br: Optional[int]
    cm_flag: bool
    stability: str                    # "stable" | "unstable"
    ae_codim: Optional[int]
    samuel_profile: Tuple[int, ...]
    lc_dim: Optional[int]             # a row only under --with-lc
    warnings: Tuple[str, ...]         # printed after the rows
    route_disagreement: bool = False  # two routes to the same number differed


@contextmanager
def _worker(thunk):
    """Run `thunk` in a forked child while the body runs; the body's `join()`
    returns the thunk's result or raises its error.

    The child pickles its outcome into a pipe and ends with `os._exit`, so
    it runs no exit handler and flushes no inherited stream. A child that
    ends without an outcome (killed by a signal, out of memory) is a
    `ResourceLimitError` of stage "report worker". If the body raises, the
    child is killed and reaped first. Where there is no `os.fork`, or no
    process to spare, `join` runs the thunk itself.
    """
    pid = None
    if hasattr(os, "fork"):
        r, w = os.pipe()
        gc.freeze()    # the child's collections then leave the parent's objects alone
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
        if pid != 0:
            gc.unfreeze()
    if pid is None:
        yield thunk
        return
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                outcome = (True, thunk())
            except BaseException as exc:
                outcome = (False, exc)
            with os.fdopen(w, "wb") as fh:
                fh.write(pickle.dumps(outcome))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    reader = os.fdopen(r, "rb")
    reaped = False

    def join():
        nonlocal reaped
        data = reader.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code:
            limit, value = ("signal", -code) if code < 0 else ("exit status", code)
            names = {s.value: s.name for s in signal.Signals}
            how = (f"killed by {names.get(value, f'signal {value}')}" if code < 0
                   else f"exit status {code}")
            raise ResourceLimitError(f"report worker ended without a result ({how})",
                                     "report worker", limit, value)
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield join
    finally:
        reader.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def full_report(G: ImageEquation, with_lc: bool = True,
                s0: Optional[Fraction] = None) -> InvariantReport:
    """Compute every invariant of the image equation `G`, under the spec and
    the limits it was built with, and cross-check; disagreements become
    warnings, never silent preferences. `s0` pins the slice sample point.

    The slice oracle, the Bruce-Roberts basis and its colength, which
    share nothing with the FT route, run in one forked worker (`_worker`)
    while this process computes the image Milnor number; the worker sends
    the basis back as exponent -> coefficient dicts with the colength, and
    both fill `G`'s cache, where every later count reads them. Errors come
    out in the order of a sequential run: the Milnor number's, then the
    oracle's, then the Bruce-Roberts basis's, then its colength's.
    """
    spec = G.spec
    warnings: List[str] = []
    disagreement = False

    _dg(G)    # before the fork, so that both processes share it
    with _worker(lambda: (slice_milnor_total(G, s0=s0),
                          [p.terms for p in _br_ideal(G).basis()],
                          bruce_roberts_number(G))) as join:
        mu = image_milnor_number(G)
        oracle, br_terms, mu_br = join()

    # reduced bases are unique: the one G would find
    G._cache.setdefault("br", Ideal._reduced(
        G.ctx, [Polynomial._raw(G.ctx, t) for t in br_terms], G.config))
    G._cache.setdefault("mu_br", mu_br)

    codim = mu.profile[0]
    stability = "stable" if mu.multiplicity == 0 else "unstable"
    if (codim == 0) != (mu.multiplicity == 0):
        disagreement = True
        warnings.append("stability verdicts disagree: ft codimension "
                        f"{codim} vs multiplicity {mu.multiplicity}")
    if mu.multiplicity > codim:
        warnings.append(f"multiplicity {mu.multiplicity} exceeds ft codimension "
                        f"{codim}; the quotient should be at worst a curve")
    cm_flag = mu.multiplicity == codim

    if oracle.total != mu.multiplicity:
        disagreement = True
        warnings.append(
            f"independent slice count {oracle.total} (at s0={oracle.s0}) does not "
            f"match the multiplicity route {mu.multiplicity}")

    ae = ae_codimension(G) if spec.is_stable_unfolding else None
    # Mond's conjecture, Ae-codim <= mu_I, is a theorem for source dimension
    # n <= 2 (Mond for curves, de Jong and van Straten for surfaces), so there
    # a larger Ae-codimension means one of the two routes is wrong
    if ae is not None and len(spec.source) <= 2 and ae > mu.multiplicity:
        disagreement = True
        warnings.append(f"ae codimension {ae} exceeds the image Milnor number "
                        f"{mu.multiplicity}, against Mond's inequality for n <= 2")

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
        oracle_s0=oracle.s0,
        ft_codim=codim,
        ft_dim=fdim,
        mu_br=mu_br,
        cm_flag=cm_flag,
        stability=stability,
        ae_codim=ae,
        samuel_profile=mu.profile,
        lc_dim=lc_dim,
        warnings=tuple(warnings),
        route_disagreement=disagreement,
    )
