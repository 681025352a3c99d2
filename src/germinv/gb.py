"""Standard bases over Q: one reduction engine for ideals, modules and jets.

The engine is `_Engine`: one element type, one s-polynomial, one reducer and
one pair loop. A run fixes a term order and three pieces of data:

- whether the order is local (1 the largest monomial) or global;
- an optional truncation order (jets): every term of total degree at or
  above it is dropped, which is reduction by the implicit generators of
  m^bound;
- a module rank. Ideal terms are plain exponent tuples. A term of a free
  module of rank r over n variables is the ring exponent followed by the
  two position coordinates (c, r - c) of its component c < r. Plain
  componentwise divisibility then already requires equal components, and
  degrees (maximal degree, ecart, sugar, truncation) subtract r so that they
  count ring variables only.

The reducer keys each term once into a heap and pops the largest live term
(Monagan and Pearce, CASC 2007), so no step rescans the polynomial. For a
local order without truncation it picks reducers by Mora's ecart rule and
may enlist intermediate remainders as new reducers, which is what makes it
terminate without a well-order; otherwise it takes the first divisor. It
reduces every term for global bases and normal forms, and stops at the first
irreducible term for membership tests, Mora weak normal forms and jets.

The pair loop selects pairs by sugar under global orders and by lowest lcm
under local ones, and applies the chain criterion and, where sound, the
product criterion. Global ideal bases are tail-interreduced into the unique
reduced basis; local bases and module bases keep their tails (full tail
reduction need not terminate in a local ring, and buys nothing for
harvesting syzygies).

Everything downstream (elimination, saturation, the two dimension
counts) reduces to basis computations here. Dimension
counting never inspects coefficients: it reads the staircase of the leading
ideal, which is the correct recipe for both the polynomial ring and the
local ring at the origin. Local quotient dimensions go through truncated
standard bases (jets), which certify their own exactness.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd
from operator import add, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError, ResourceLimitError
from .orderings import OrderingSpec, key_function
from .poly import Exponent, Polynomial, VariableContext


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


INFINITE = _Sentinel("INFINITE")   # quotient has no finite vector-space dimension
EMPTY = _Sentinel("EMPTY")         # Krull dimension of the empty variety (unit ideal)


def _intify(terms) -> Dict[Exponent, int]:
    """Clear denominators and strip content: primitive integer coefficients."""
    if not terms:
        return {}
    den = 1
    for c in terms.values():
        if isinstance(c, Fraction):
            den = den * c.denominator // gcd(den, c.denominator)
    return _primitive({e: int(c * den) for e, c in terms.items()})[0]


def _primitive(h: Dict[Exponent, int]) -> Tuple[Dict[Exponent, int], int]:
    """(h divided by its content, the content) for a nonzero integer polynomial."""
    g = 0
    for v in h.values():
        g = gcd(g, v)
        if g == 1:
            return h, 1
    return {e: v // g for e, v in h.items()}, g


def _divides(a: Exponent, b: Exponent) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


class _Elt:
    """Basis element with the data the reducer needs on every step.

    Engine-internal elements always carry primitive integer coefficients;
    operating over Z with explicit content handling keeps the hot loops free
    of per-operation gcd normalization. `off` is the run's module rank.
    """

    __slots__ = ("terms", "lm", "lc", "lmkey", "maxdeg", "ecart", "sugar")

    def __init__(self, terms: Dict[Exponent, int], key, off: int = 0):
        self.terms = terms
        self.lm = max(terms, key=key)
        self.lc = terms[self.lm]
        self.lmkey = key(self.lm)
        self.maxdeg = max(sum(e) for e in terms) - off
        self.ecart = self.maxdeg - sum(self.lm) + off
        self.sugar = self.maxdeg


class _Engine:
    """One standard-basis run: an order, the limits, and the data of the
    module docstring (local order, truncation bound, module rank)."""

    def __init__(self, key, local: bool, cfg: ComputeConfig, nvars: int,
                 bound: Optional[int] = None, rank: int = 0):
        self.key = key
        self.local = local
        self.cfg = cfg
        self.nvars = nvars
        self.off = rank
        # truncation drops terms whose exponent sum reaches `limit`
        self.limit = None if bound is None else bound + rank
        self.mora = local and bound is None
        self.stage = "jet" if bound is not None else "module" if rank else "ideal"
        self.heap_key = lambda e: tuple([-v for v in key(e)])

    def elt(self, terms: Dict[Exponent, int]) -> _Elt:
        return _Elt(terms, self.key, self.off)

    def reduce(self, f, elts: Sequence[_Elt], full: bool) -> Tuple[Dict[Exponent, int], Fraction]:
        """Pseudo-reduce f by elts over Z.

        Returns (r, scale): r has primitive integer coefficients and equals
        scale times the remainder over Q, scale a positive rational; r is
        zero exactly when that remainder is. With `full` (global orders)
        the remainder is the reduced normal form; otherwise reduction stops
        at the first term no lead divides. Under Mora's rule the remainder
        is a weak normal form, determined only up to a unit of the local ring.
        """
        h = _intify(f)
        if not h:
            return h, Fraction(1)
        e0 = next(iter(h))
        num, den = h[e0], 1     # scale = num / (den * f[e0])
        cfg, limit, heap_key = self.cfg, self.limit, self.heap_key
        pool = list(elts) if self.mora else elts
        heap = [(heap_key(e), e) for e in h]
        heapq.heapify(heap)
        steps = 0
        while heap:
            e = heapq.heappop(heap)[1]
            c = h.get(e)
            if c is None:
                continue                # stale: the term cancelled after it was keyed
            red = None
            if self.mora:
                for g in pool:
                    if _divides(g.lm, e) and (red is None or g.ecart < red.ecart):
                        red = g
            else:
                for g in elts:
                    if _divides(g.lm, e):
                        red = g
                        break
            if red is None:
                if full:
                    continue  # settled: coefficient may still change, monomial won't return
                break
            if self.mora and red.ecart and red.ecart > max(map(sum, h)) - sum(e):
                pool.append(self.elt(_primitive(dict(h))[0]))
            m = tuple(map(sub, e, red.lm))
            steps += 1
            # truncation bounds the degrees, and every step lowers the lead
            # within the finite set of monomials below it: only other runs
            # need the guards
            if limit is None:
                if steps > cfg.max_pairs:
                    raise ResourceLimitError(
                        f"{self.stage} reduction exceeded the pair budget "
                        f"(max_pairs={cfg.max_pairs} steps)")
                if sum(m) + red.maxdeg > cfg.max_degree:
                    raise ResourceLimitError(
                        f"{self.stage} reduction exceeded the degree bound "
                        f"max_degree={cfg.max_degree}")
            g0 = gcd(c, red.lc)
            scale = red.lc // g0
            if scale < 0:
                scale, g0 = -scale, -g0
            if scale != 1:
                for k in h:
                    h[k] *= scale
                num *= scale
            factor = c // g0
            del h[e]
            lm = red.lm
            for ge, gc in red.terms.items():
                if ge == lm:
                    continue
                te = tuple(map(add, ge, m))
                if limit is not None and sum(te) >= limit:
                    continue
                prev = h.get(te)
                if prev is None:
                    h[te] = -factor * gc
                    heapq.heappush(heap, (heap_key(te), te))
                else:
                    s = prev - factor * gc
                    if s:
                        h[te] = s
                    else:
                        del h[te]
            if steps % 64 == 0 and h:
                h, g = _primitive(h)
                den *= g
                g = gcd(num, den)
                num, den = num // g, den // g
        if h:
            h, g = _primitive(h)
            den *= g
        return h, Fraction(num, den) / f[e0]

    def spoly(self, f: _Elt, g: _Elt) -> Dict[Exponent, int]:
        lcm = tuple(map(max, f.lm, g.lm))
        if sum(lcm) - self.off > self.cfg.max_degree:
            raise ResourceLimitError(
                f"{self.stage} s-polynomial exceeded the degree bound "
                f"max_degree={self.cfg.max_degree}")
        mf = tuple(map(sub, lcm, f.lm))
        mg = tuple(map(sub, lcm, g.lm))
        g0 = gcd(f.lc, g.lc)
        cf = g.lc // g0
        cg = f.lc // g0
        out = {tuple(map(add, e, mf)): c * cf for e, c in f.terms.items()}
        for e, c in g.terms.items():
            te = tuple(map(add, e, mg))
            s = out.get(te, 0) - c * cg
            if s:
                out[te] = s
            else:
                del out[te]
        if self.limit is not None:
            out = {e: c for e, c in out.items() if sum(e) < self.limit}
        return out

    def basis(self, gens: Sequence[Dict[Exponent, Fraction]],
              lead_stop=None) -> Optional[List[_Elt]]:
        """Minimal standard basis of `gens`, leads in descending order.

        Global ideal bases come back tail-interreduced (the reduced basis).
        With `lead_stop` set, the predicate sees the accumulated lead
        exponents after every new element; once it returns true the loop
        aborts and None comes back — no partial basis escapes, the caller
        already saw the leads.
        """
        cfg, off, n, limit = self.cfg, self.off, self.nvars, self.limit
        elts: List[_Elt] = []
        for g in gens:
            if limit is not None:
                g = {e: c for e, c in g.items() if sum(e) < limit}
            if g:
                elts.append(self.elt(_intify(g)))

        heap: List[tuple] = []
        done: set = set()

        def add_pairs(j: int):
            b = elts[j]
            for i in range(j):
                a = elts[i]
                if a.lm[n:] != b.lm[n:]:
                    continue          # leads in different components never pair
                lcm = tuple(map(max, a.lm, b.lm))
                d = sum(lcm)
                if limit is not None and d >= limit:
                    continue          # the s-polynomial lies in m^bound
                d -= off
                sugar = max(a.sugar + d - sum(a.lm), b.sugar + d - sum(b.lm)) + off
                # normal strategy: lowest lcm first, by sugar under a global order
                prio = self.heap_key(lcm) if self.local else (sugar, self.key(lcm))
                heapq.heappush(heap, (prio, i, j, sugar))

        for j in range(len(elts)):
            add_pairs(j)

        handled = 0
        while heap:
            _, i, j, sugar = heapq.heappop(heap)
            done.add((i, j))
            handled += 1
            if handled > cfg.max_pairs:
                raise ResourceLimitError(
                    f"{self.stage} basis exceeded the pair budget max_pairs={cfg.max_pairs}")
            f, g = elts[i], elts[j]
            lcm = tuple(map(max, f.lm, g.lm))
            # Product criterion: coprime leads leave an s-polynomial that
            # reduces to zero, because lm(g)f - lm(f)g = tail(f)g - tail(g)f.
            # Under a local order the two sides can cancel when a lead divides
            # a tail term, so one element must have ecart 0. The identity
            # multiplies two elements, which vectors cannot do: the criterion
            # is unsound for modules, and it never fires there, since the
            # position coordinates of same-component leads always overlap.
            if (not self.local or not f.ecart or not g.ecart) and \
                    all(a + b == c for a, b, c in zip(f.lm, g.lm, lcm)):
                continue
            # chain criterion: a third lead dividing the lcm, both its pairs settled
            skip = False
            for k in range(len(elts)):
                if k != i and k != j and _divides(elts[k].lm, lcm) and \
                        (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done:
                    skip = True
                    break
            if skip:
                continue
            h = self.reduce(self.spoly(f, g), elts, full=not self.local)[0]
            if not h:
                continue
            new = self.elt(h)
            new.sugar = max(sugar, new.maxdeg)
            elts.append(new)
            add_pairs(len(elts) - 1)
            if lead_stop is not None and lead_stop([e.lm for e in elts]):
                return None

        # minimalize: drop elements whose lead is divisible by another lead
        minimal = [e for i, e in enumerate(elts)
                   if not any(k != i and _divides(o.lm, e.lm) and (o.lm != e.lm or k < i)
                              for k, o in enumerate(elts))]
        minimal.sort(key=lambda e: e.lmkey, reverse=True)
        if not self.local and not off:
            # tail interreduction gives the unique reduced basis
            for idx in range(len(minimal)):
                others = minimal[:idx] + minimal[idx + 1:]
                minimal[idx] = self.elt(self.reduce(minimal[idx].terms, others, full=True)[0])
        return minimal


def _staircase_profile(leads: Sequence[Exponent], nvars: int):
    """(count, largest total degree) over the staircase, or INFINITE.

    Finite exactly when every variable shows a pure power among the leads;
    the count then runs over the bounding box of those powers.
    """
    if any(sum(e) == 0 for e in leads):
        return 0, -1
    bounds: List[int] = []
    for i in range(nvars):
        pure = [e[i] for e in leads if sum(e) == e[i]]
        if not pure:
            return INFINITE
        bounds.append(min(pure))
    size = 1
    for b in bounds:
        size *= max(b, 1)
    if size > 2_000_000:
        raise ResourceLimitError("staircase enumeration too large")
    leads = [e for e in leads if all(x < b for x, b in zip(e, bounds))]
    count = 0
    maxdeg = -1
    for mono in itertools.product(*(range(b) for b in bounds)):
        if not any(_divides(e, mono) for e in leads):
            count += 1
            d = sum(mono)
            if d > maxdeg:
                maxdeg = d
    return count, maxdeg


def staircase_count(leads: Sequence[Exponent], nvars: int):
    """Number of monomials outside the monomial ideal, or INFINITE."""
    profile = _staircase_profile(leads, nvars)
    if profile is INFINITE:
        return INFINITE
    return profile[0]


def _local_quotient_dimension(gens: Sequence[Dict[Exponent, Fraction]], nvars: int,
                              cfg: ComputeConfig):
    """dim of the local quotient at the origin by truncation-order growth.

    A truncated basis at order N determines the true local lead ideal below
    degree N, so once the truncated staircase is finite and tops out strictly
    below N the count is exact — no further growth can change it. Failure to
    certify below the configured jet bound is reported as a resource limit:
    it means the quotient has positive local dimension or a staircase taller
    than the bound, and the two cannot be told apart by truncation.
    """
    if not gens:
        return INFINITE
    key = key_function(OrderingSpec.local(), nvars)
    bound = max(2, min(8, cfg.jet_bound))
    while True:
        # a jet: the standard basis of I + m^bound, m^bound kept implicit
        jet = _Engine(key, True, cfg, nvars, bound=bound).basis(gens)
        profile = _staircase_profile([e.lm for e in jet], nvars)
        if profile is not INFINITE and profile[1] < bound:
            return profile[0]
        if bound >= cfg.jet_bound:
            raise ResourceLimitError(
                f"local quotient dimension did not stabilize below jet_bound={cfg.jet_bound}; "
                "the quotient may have positive local dimension")
        if profile is INFINITE:
            bound = min(bound * 2, cfg.jet_bound)
        else:
            bound = min(max(bound * 2, profile[1] + 2), cfg.jet_bound)


def monomial_dimension(leads: Sequence[Exponent], nvars: int):
    """Krull dimension of R/(monomial ideal): the largest set of variables
    meeting no lead's support. EMPTY for the unit ideal."""
    if any(sum(e) == 0 for e in leads):
        return EMPTY
    supports = [frozenset(i for i, x in enumerate(e) if x) for e in leads]
    for size in range(nvars, -1, -1):
        for subset in itertools.combinations(range(nvars), size):
            sset = set(subset)
            if all(not s <= sset for s in supports):
                return size
    return 0


class Ideal:
    """An ideal handle: generators, an order, and a lazily cached basis.

    The order decides the meaning of every derived quantity: with a global
    order the handle speaks about the polynomial ring, with a local one about
    the ring of germs at the origin.
    """

    def __init__(self, ctx: VariableContext, gens: Iterable[Polynomial],
                 ordering: Optional[OrderingSpec] = None,
                 config: ComputeConfig = DEFAULT_CONFIG):
        self.ctx = ctx
        self.ordering = ordering or OrderingSpec.degrevlex()
        self.config = config
        self._key = key_function(self.ordering, len(ctx))
        gens = [g for g in gens if not g.is_zero()]
        for g in gens:
            if g.ctx != ctx:
                raise GermInputError("ideal generator over the wrong context")
        self.gens: List[Polynomial] = sorted(gens, key=self._gen_sort_key, reverse=True)
        self._basis_cache: Optional[List[Polynomial]] = None

    def _gen_sort_key(self, p: Polynomial):
        items = sorted(((self._key(e), c) for e, c in p.terms.items()), reverse=True)
        return tuple(items)

    # -- basis -----------------------------------------------------------

    @property
    def is_local(self) -> bool:
        return not self.ordering.is_global

    def _engine(self) -> _Engine:
        return _Engine(self._key, self.is_local, self.config, len(self.ctx))

    def _keep_basis(self, elts: List[_Elt]) -> None:
        self._basis_cache = [Polynomial._raw(self.ctx, {m: Fraction(c, e.lc)
                                                        for m, c in e.terms.items()})
                             for e in elts]

    def basis(self) -> List[Polynomial]:
        """Reduced Groebner basis (global order) or minimal standard basis (local)."""
        if self._basis_cache is None:
            self._keep_basis(self._engine().basis([g.terms for g in self.gens]))
        return self._basis_cache

    def leading_monomials(self) -> List[Exponent]:
        return [max(p.terms, key=self._key) for p in self.basis()]

    def is_unit(self) -> bool:
        return any(sum(e) == 0 for e in self.leading_monomials())

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Reduced normal form (global) or Mora weak normal form (local).

        The global form is the canonical linear representative of p modulo
        the ideal. The local form is a weak normal form: zero exactly on
        ideal members, otherwise a primitive-integer representative that is
        only determined up to a unit of the local ring.
        """
        if p.ctx != self.ctx:
            raise GermInputError("normal form argument over the wrong context")
        red, scale = self._reduce(p, full=not self.is_local)
        if self.is_local:
            scale = 1     # a weak normal form is only defined up to a unit anyway
        return Polynomial._raw(self.ctx, {e: Fraction(c) / scale for e, c in red.items()})

    def contains(self, p: Polynomial) -> bool:
        return p.is_zero() or not self._reduce(p, full=False)[0]

    def _reduce(self, p: Polynomial, full: bool):
        eng = self._engine()
        elts = [eng.elt(_intify(b.terms)) for b in self.basis()]
        return eng.reduce(p.terms, elts, full)

    # -- constructions ---------------------------------------------------

    def with_ordering(self, ordering: OrderingSpec) -> "Ideal":
        """The same generators under `ordering`; this handle itself, cached
        basis included, when the order is unchanged."""
        if ordering == self.ordering:
            return self
        return Ideal(self.ctx, self.gens, ordering, self.config)

    def elimination(self, names: Iterable[str]) -> "Ideal":
        """Intersect with the subring omitting `names` (block order; global only)."""
        if not self.ordering.is_global:
            raise GermInputError("elimination requires a global order")
        names = list(names)
        front = tuple(self.ctx.index(n) for n in names)
        spec = OrderingSpec.elimination(front, len(self.ctx))
        work = Ideal(self.ctx, self.gens, spec, self.config)
        front_set = set(front)
        keep_idx = [i for i in range(len(self.ctx)) if i not in front_set]
        new_ctx = self.ctx.drop(names)
        out: List[Polynomial] = []
        for p in work.basis():
            if all(all(e[i] == 0 for i in front) for e in p.terms):
                out.append(Polynomial._raw(
                    new_ctx,
                    {tuple(e[i] for i in keep_idx): c for e, c in p.terms.items()}))
        return Ideal(new_ctx, out, OrderingSpec.degrevlex(), self.config)

    def saturation(self, f: Polynomial) -> "Ideal":
        """Stable colon ideal (I : f^infinity), by one elimination: a fresh
        variable z is eliminated from I + (1 - z*f) (Rabinowitsch's trick)."""
        if f.ctx != self.ctx:
            raise GermInputError("saturation argument over the wrong context")
        if f.is_zero():
            raise GermInputError("saturation by zero")
        zname = self.ctx.fresh_name("_z")
        ext = self.ctx.extend([zname], "source")
        gens = [g.rename(ext) for g in self.gens]
        z = Polynomial.variable(ext, zname)
        gens.append(Polynomial.constant(ext, 1) - z * f.rename(ext))
        elim = Ideal(ext, gens, OrderingSpec.degrevlex(), self.config).elimination([zname])
        return Ideal(self.ctx, elim.gens, self.ordering, self.config)

    # -- dimensions ------------------------------------------------------

    def quotient_dimension(self):
        """Vector-space dimension of the quotient over the handle's ring.

        Global order: staircase of the reduced basis, INFINITE when some
        variable has no pure power in the leading ideal. Local order: the
        dimension of the quotient of germs at the origin, computed through
        truncated standard bases (see _local_quotient_dimension) rather than
        through a full Mora basis — the two agree, but truncation keeps large
        inputs affordable. Truncation starts at order 8 and doubles until
        the count is certified or the jet bound is reached.
        """
        if self.ordering.is_global:
            return staircase_count(self.leading_monomials(), len(self.ctx))
        return _local_quotient_dimension([g.terms for g in self.gens],
                                         len(self.ctx), self.config)

    def dimension(self):
        """Krull dimension of the quotient read off the leading ideal; EMPTY
        for the unit ideal."""
        return monomial_dimension(self.leading_monomials(), len(self.ctx))

    def dimension_bound(self, stop_at: int):
        """Upper bound for dimension(), with early exit at `stop_at`.

        Runs the basis loop watching the dimension cut out by the leads
        found so far. Partial leads generate a subideal of the true leading
        ideal, so that dimension only shrinks as elements accumulate and is
        an upper bound throughout. Once it reaches `stop_at` the loop aborts
        and the bound is returned; if the loop finishes first the result is
        exact (and the basis is kept). Requires a global order — local leads
        stabilize too, but nothing certifies when.
        """
        if not self.ordering.is_global:
            raise GermInputError("dimension bound requires a global order")
        if self._basis_cache is not None:
            return self.dimension()
        n = len(self.ctx)
        seen = {"bound": n}

        def hit(leads):
            d = monomial_dimension(leads, n)
            if d is EMPTY:
                seen["bound"] = EMPTY
                return True
            seen["bound"] = min(seen["bound"], d)
            return d <= stop_at

        raw = self._engine().basis([g.terms for g in self.gens], lead_stop=hit)
        if raw is None:
            return seen["bound"]
        self._keep_basis(raw)
        return self.dimension()
