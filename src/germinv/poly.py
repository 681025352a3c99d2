"""Sparse multivariate polynomials over Q with role-tagged variables.

A polynomial is a dict from exponent tuples to nonzero Fractions (or ints),
bound to a VariableContext that fixes variable order and assigns each
variable a role (source, target, parameter, cotangent). Roles are what let
the germ layer find "the parameter direction" without positional conventions.

Arithmetic is exact; equality is representation independent (dicts compare
by content, zero coefficients are never stored).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

from .errors import GermInputError
from . import orderings

Exponent = Tuple[int, ...]
Scalar = Union[Fraction, int]

ROLE_SOURCE = "source"
ROLE_TARGET = "target"
ROLE_PARAMETER = "parameter"
ROLE_COTANGENT = "cotangent"
ROLES = (ROLE_SOURCE, ROLE_TARGET, ROLE_PARAMETER, ROLE_COTANGENT)


class Record:
    """An immutable slotted record. `__init__` sets the fields once through
    `_fill`, in slot order; equality, pickling and the repr go over
    `__slots__`. Assigning or deleting a field raises AttributeError, and a
    record equals only a record of its own class."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())) + ")"


class VariableContext(Record):
    """Ordered, role-tagged variable list shared by a family of polynomials.

    A `Record`, so equal contexts compare equal; they hash equal too. Not a
    tuple, since its length counts variables.
    """

    __slots__ = ("names", "roles")

    def __init__(self, names: Tuple[str, ...], roles: Tuple[str, ...]):
        if len(names) != len(roles):
            raise GermInputError("variable names and roles differ in length")
        if len(set(names)) != len(names):
            raise GermInputError("duplicate variable name in context")
        for r in roles:
            if r not in ROLES:
                raise GermInputError(f"unknown variable role {r!r}")
        if roles.count(ROLE_PARAMETER) > 1:
            raise GermInputError("a context carries at most one parameter variable")
        self._fill(names, roles)

    def __hash__(self) -> int:
        return hash((self.names, self.roles))

    @staticmethod
    def make(**groups: Iterable[str]) -> "VariableContext":
        """Build from role keyword arguments, e.g. make(source=("x","y"), parameter=("s",))."""
        names: list = []
        roles: list = []
        for role in ROLES:
            for name in groups.pop(role, ()):
                names.append(name)
                roles.append(role)
        if groups:
            raise GermInputError(f"unknown role group {sorted(groups)!r}")
        return VariableContext(tuple(names), tuple(roles))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GermInputError(f"variable {name!r} not in context") from None

    def parameter_index(self) -> int:
        try:
            return self.roles.index(ROLE_PARAMETER)
        except ValueError:
            raise GermInputError("context has no parameter variable") from None

    def extend(self, names: Iterable[str], role: str) -> "VariableContext":
        extra = tuple(names)
        return VariableContext(self.names + extra, self.roles + (role,) * len(extra))

    def drop(self, names: Iterable[str]) -> "VariableContext":
        gone = set(names)
        keep = [(n, r) for n, r in zip(self.names, self.roles) if n not in gone]
        return VariableContext(tuple(n for n, _ in keep), tuple(r for _, r in keep))

    def fresh_name(self, stem: str) -> str:
        """A variable name not already used, for internal constructions."""
        if stem not in self.names:
            return stem
        i = 0
        while f"{stem}{i}" in self.names:
            i += 1
        return f"{stem}{i}"


_ZERO = Fraction(0)
_ONE = Fraction(1)


class Polynomial:
    """Immutable-by-convention sparse polynomial over a VariableContext."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VariableContext, terms: Mapping[Exponent, Scalar]):
        n = len(ctx)
        clean: Dict[Exponent, Fraction] = {}
        for exp, c in terms.items():
            if len(exp) != n:
                raise GermInputError("exponent length does not match context")
            if any(e < 0 for e in exp):
                raise GermInputError("negative exponent")
            c = Fraction(c)
            if c:
                clean[tuple(exp)] = c
        self.ctx = ctx
        self.terms = clean

    @classmethod
    def _raw(cls, ctx: VariableContext, terms: Dict[Exponent, Fraction]) -> "Polynomial":
        # trusted constructor: terms already normalized, not aliased elsewhere
        p = object.__new__(cls)
        p.ctx = ctx
        p.terms = terms
        return p

    @classmethod
    def zero(cls, ctx: VariableContext) -> "Polynomial":
        return cls._raw(ctx, {})

    @classmethod
    def constant(cls, ctx: VariableContext, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        return cls._raw(ctx, {(0,) * len(ctx): c} if c else {})

    @classmethod
    def variable(cls, ctx: VariableContext, name: str) -> "Polynomial":
        i = ctx.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(ctx)))
        return cls._raw(ctx, {exp: _ONE})

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.ctx), _ZERO)

    def weighted_degrees(self, weights: Mapping[str, int]) -> Tuple[int, ...]:
        """Sorted distinct weighted term degrees (empty for zero)."""
        w = [weights.get(n, 0) for n in self.ctx.names]
        degs = {sum(wi * ei for wi, ei in zip(w, exp)) for exp in self.terms}
        return tuple(sorted(degs))

    # -- arithmetic ------------------------------------------------------

    def _check_ctx(self, other: "Polynomial"):
        if self.ctx != other.ctx:
            raise GermInputError("context mismatch between polynomials")

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ctx, other)
        self._check_ctx(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, _ZERO) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return Polynomial._raw(self.ctx, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return Polynomial.constant(self.ctx, other) - self

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.ctx)
            return Polynomial._raw(self.ctx, {e: k * c for e, k in self.terms.items()})
        self._check_ctx(other)
        out: Dict[Exponent, Fraction] = {}
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                s = out.get(e, _ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial._raw(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise GermInputError("polynomial powers take nonnegative integer exponents")
        result = Polynomial.constant(self.ctx, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self == Polynomial.constant(self.ctx, other)
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    # -- calculus and specialization -------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Partial derivative by a context variable; int coefficients stay ints."""
        i = self.ctx.index(name)
        out: Dict[Exponent, Scalar] = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e:
                d = exp[:i] + (e - 1,) + exp[i + 1:]
                out[d] = out.get(d, 0) + c * e
        return Polynomial._raw(self.ctx, {e: c for e, c in out.items() if c})

    def specialize(self, values: Mapping[str, Scalar]) -> "Polynomial":
        """Set the named variables to rational values.

        The result lives over this context without them (`ctx.drop`); an
        unknown name is a GermInputError.
        """
        fixed = [(self.ctx.index(n), Fraction(v)) for n, v in values.items()]
        gone = {i for i, _ in fixed}
        keep = [i for i in range(len(self.ctx)) if i not in gone]
        zeros = [i for i, v in fixed if not v]
        # a value of 0 kills its terms, one of 1 changes nothing; the others
        # take each power once from a table
        powers = [(i, v, {}) for i, v in fixed if v and v != 1]
        out: Dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            if any(exp[i] for i in zeros):
                continue
            for i, v, table in powers:
                k = exp[i]
                if k:
                    p = table.get(k)
                    if p is None:
                        p = table[k] = v ** k
                    c *= p
            e = tuple(exp[i] for i in keep)
            out[e] = out.get(e, _ZERO) + c
        return Polynomial._raw(self.ctx.drop(values), {e: c for e, c in out.items() if c})

    def rename(self, target: VariableContext) -> "Polynomial":
        """Transport to a context containing this one's variables."""
        idx = [target.index(n) for n in self.ctx.names]
        m = len(target)
        out: Dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            e = [0] * m
            for i, ei in enumerate(exp):
                e[idx[i]] = ei
            out[tuple(e)] = c
        return Polynomial._raw(target, out)

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=orderings.degrevlex, reverse=True):
            c = self.terms[exp]
            factors = []
            for name, e in zip(self.ctx.names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = body
            else:
                piece = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, piece))
        head_sign, head = parts[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, piece in parts[1:]:
            text += f" {sign} {piece}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial({self})"
