"""Sparse multivariate Laurent polynomials with integer coefficients.

Every coefficient ring used by this package (the plain integers,
Z[L, L^-1], Z[u, v], ...) is one representation: a finite map from
exponent vectors to nonzero arbitrary-precision integers, tagged with a
:class:`RingDescriptor`.  Zero variables encodes the plain integers, so a
single code path serves all target rings.

Values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import re
import sys
from typing import Callable, Dict, Iterable, Mapping, Tuple

from .gridops import Fold, _accumulate_product, _product_lined, slot_product

Exponents = Tuple[int, ...]


class RingMismatchError(ValueError):
    """Raised when operands live in different rings."""


_DECIMAL = re.compile(r"-?[0-9]+")


def _shown(value) -> str:
    """A JSON value as an error message shows it, cut to 40 characters."""
    if type(value) is int and value.bit_length() > 128:
        return "an integer of %d bits" % value.bit_length()
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _json_int(value, what: str, decimal: bool = False) -> int:
    """A JSON integer (not a bool), or with ``decimal`` a decimal string.

    Anything else, a float or a bool included, raises ValueError naming
    ``what``, so a malformed file is refused instead of rounded.
    """
    if type(value) is int:
        return value
    if decimal and isinstance(value, str) and _DECIMAL.fullmatch(value):
        try:
            return int(value)
        except ValueError:
            raise ValueError("%s has more than the %d decimal digits allowed"
                             % (what, sys.get_int_max_str_digits())) from None
    raise ValueError("%s must be an integer, got %s" % (what, _shown(value)))


def _json_get(obj, key: str, path: str):
    """``obj[key]`` of the JSON object at ``path``; a ValueError naming the
    path when ``obj`` is not an object or has no such key."""
    if not isinstance(obj, Mapping):
        raise ValueError("%s must be a JSON object, got %s" % (path, _shown(obj)))
    if key not in obj:
        raise ValueError("%s.%s is missing" % (path, key))
    return obj[key]


def _json_list(obj, key: str, path: str) -> list:
    """``obj[key]`` as :func:`_json_get` reads it, which must be a list."""
    value = _json_get(obj, key, path)
    if not isinstance(value, list):
        raise ValueError("%s.%s must be a list, got %s"
                         % (path, key, _shown(value)))
    return value


class _Frozen:
    """Base of the value types: each slot is set once, by its constructor
    through ``object.__setattr__``, and never again.

    Pickling and copying carry every slot except the caches that
    ``_caches`` names (slot -> its empty value's factory); the copy
    starts them empty.
    """

    __slots__ = ()
    _caches: Mapping[str, Callable[[], object]] = {}

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__
                if name not in self._caches}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
        for name, empty in self._caches.items():
            object.__setattr__(self, name, empty())


class RingDescriptor(_Frozen):
    """An ordered list of variable names plus a Laurent flag.

    ``laurent=True`` admits negative exponents.  No variables at all
    (``RingDescriptor()``) models the ring of integers.
    """

    __slots__ = ("variables", "laurent")

    def __init__(self, variables: Iterable[str] = (), laurent: bool = False):
        variables = tuple(variables)
        seen = set()
        for name in variables:
            if not isinstance(name, str) or not name:
                raise ValueError("variable names must be nonempty strings")
            if name in seen:
                raise ValueError("duplicate variable name %r" % name)
            seen.add(name)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "laurent", bool(laurent))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        if not isinstance(other, RingDescriptor):
            return NotImplemented
        return self.variables == other.variables and self.laurent == other.laurent

    def __hash__(self):
        return hash((self.variables, self.laurent))

    def __repr__(self):
        if not self.variables:
            return "RingDescriptor()"
        return "RingDescriptor(%r, laurent=%r)" % (list(self.variables), self.laurent)

    def __str__(self):
        if not self.variables:
            return "Z"
        body = ", ".join(
            "%s^{+-}" % v if self.laurent else v for v in self.variables
        )
        return "Z[%s]" % body

    def to_json(self) -> dict:
        return {"vars": list(self.variables), "laurent": self.laurent}

    @classmethod
    def from_json(cls, obj: Mapping, path: str = "ring") -> "RingDescriptor":
        """The ring of a JSON object; errors name the JSON ``path``."""
        names = _json_list(obj, "vars", path)
        laurent = _json_get(obj, "laurent", path)
        if not isinstance(laurent, bool):
            raise ValueError("%s.laurent must be true or false, got %s"
                             % (path, _shown(laurent)))
        try:
            return cls(tuple(names), laurent)
        except ValueError as exc:
            raise ValueError("%s.vars: %s" % (path, exc)) from None


INTEGERS = RingDescriptor()


def _check_ring(a: "Polynomial", b: "Polynomial"):
    if a.ring != b.ring:
        raise RingMismatchError(
            "ring mismatch: %s vs %s" % (a.ring, b.ring)
        )


def _grlex_key(item):
    exps = item[0]
    return (sum(exps), exps)


class Polynomial(_Frozen):
    """Immutable sparse polynomial over a :class:`RingDescriptor`.

    Terms are stored as ``{exponent_vector: coefficient}`` with zero
    coefficients pruned, so equality is plain dict equality.  The
    canonical text form lists terms in descending graded-lexicographic
    order with explicit ``*`` and ``^``::

        >>> R = RingDescriptor(("u", "v"))
        >>> str(Polynomial(R, {(1, 1): 1, (0, 0): 1}))
        'u*v + 1'
    """

    __slots__ = ("ring", "_terms", "_hashcache")
    # the hash of the ring's variable names differs between interpreters
    _caches = {"_hashcache": lambda: None}

    def __init__(self, ring: RingDescriptor, terms: Mapping[Exponents, int]):
        nvars = ring.nvars
        clean: Dict[Exponents, int] = {}
        for exps, coef in terms.items():
            if not isinstance(coef, int):
                raise TypeError("coefficients must be int, got %r" % type(coef))
            if coef == 0:
                continue
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(
                    "exponent vector %r has length %d, ring has %d variables"
                    % (exps, len(exps), nvars)
                )
            for e in exps:
                if not isinstance(e, int):
                    raise TypeError("exponents must be int")
                if e < 0 and not ring.laurent:
                    raise ValueError(
                        "negative exponent %d in non-Laurent ring %s" % (e, ring)
                    )
            clean[exps] = coef
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hashcache", None)

    @classmethod
    def _raw(cls, ring: RingDescriptor, terms: Dict[Exponents, int]) -> "Polynomial":
        # Trusted constructor: callers guarantee the invariants hold.
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hashcache", None)
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: RingDescriptor) -> "Polynomial":
        return cls._raw(ring, {})

    @classmethod
    def one(cls, ring: RingDescriptor) -> "Polynomial":
        return cls.constant(ring, 1)

    @classmethod
    def constant(cls, ring: RingDescriptor, value: int) -> "Polynomial":
        if not isinstance(value, int):
            raise TypeError("constant must be int")
        if value == 0:
            return cls._raw(ring, {})
        return cls._raw(ring, {(0,) * ring.nvars: value})

    @classmethod
    def variable(cls, ring: RingDescriptor, name: str) -> "Polynomial":
        try:
            i = ring.variables.index(name)
        except ValueError:
            raise ValueError("unknown variable %r in %s" % (name, ring)) from None
        exps = tuple(1 if j == i else 0 for j in range(ring.nvars))
        return cls._raw(ring, {exps: 1})

    @classmethod
    def monomial(cls, ring: RingDescriptor, exps: Iterable[int], coef: int = 1) -> "Polynomial":
        return cls(ring, {tuple(exps): coef})

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> Dict[Exponents, int]:
        """The underlying term map.  Treat as read-only."""
        return self._terms

    def sorted_terms(self):
        """Terms in descending graded-lex order (the printing order)."""
        return sorted(self._terms.items(), key=_grlex_key, reverse=True)

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_effective(self) -> bool:
        """True when every coefficient is nonnegative."""
        return all(c >= 0 for c in self._terms.values())

    def is_unit_monomial(self) -> bool:
        """True for a single term with coefficient exactly +1."""
        return len(self._terms) == 1 and next(iter(self._terms.values())) == 1

    def constant_value(self) -> int:
        """Coefficient of the empty monomial."""
        return self._terms.get((0,) * self.ring.nvars, 0)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            _check_ring(self, other)
            return other
        if isinstance(other, int):
            return Polynomial.constant(self.ring, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        get = terms.get
        for e, c in other._terms.items():
            s = get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return Polynomial._raw(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        """The product: on one folded line (``gridops``) when the term
        counts say a line may pay (``gridops._product_lined``), else in
        dicts."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring, p, q = self.ring, self._terms, other._terms
        if _product_lined(len(p), len(q)):
            fold = Fold.product(ring.nvars, 0, [p], [q])
            product = slot_product(fold.slot(p), fold.slot(q))
            return fold.polynomials(ring, [product])[0]
        acc: Dict[Exponents, int] = {}
        _accumulate_product(acc, p, q, ring.nvars)
        return Polynomial._raw(ring, {e: c for e, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be int")
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        h = self._hashcache
        if h is None:
            h = hash((self.ring, frozenset(self._terms.items())))
            object.__setattr__(self, "_hashcache", h)
        return h

    # -- ring maps ----------------------------------------------------

    def evaluate_at_ones(self) -> int:
        """Substitute 1 for every variable, i.e. sum the coefficients."""
        return sum(self._terms.values())

    # -- canonical forms ----------------------------------------------

    def _monomial_str(self, exps) -> str:
        parts = []
        for name, e in zip(self.ring.variables, exps):
            if e == 0:
                continue
            if e == 1:
                parts.append(name)
            else:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts)

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for exps, coef in self.sorted_terms():
            mono = self._monomial_str(exps)
            mag = abs(coef)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = "%d*%s" % (mag, mono)
            if not pieces:
                pieces.append("-" + body if coef < 0 else body)
            else:
                pieces.append((" - " if coef < 0 else " + ") + body)
        return "".join(pieces)

    def __repr__(self):
        return "<Polynomial %s over %s>" % (self, self.ring)

    def to_json(self) -> dict:
        return {
            "ring": self.ring.to_json(),
            "terms": [
                {"exp": list(exps), "coef": str(coef)}
                for exps, coef in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj: Mapping, path: str = "polynomial") -> "Polynomial":
        """The polynomial of a JSON object; errors name the JSON ``path``,
        such as ``series.coeffs[3].terms[0].exp``."""
        ring = RingDescriptor.from_json(_json_get(obj, "ring", path),
                                        path + ".ring")
        terms = {}
        for j, entry in enumerate(_json_list(obj, "terms", path)):
            at = "%s.terms[%d]" % (path, j)
            exps = tuple(_json_int(e, "%s.exp[%d]" % (at, k))
                         for k, e in enumerate(_json_list(entry, "exp", at)))
            coef = _json_int(_json_get(entry, "coef", at), at + ".coef",
                             decimal=True)
            if exps in terms:
                raise ValueError("%s.exp: duplicate exponent vector %r"
                                 % (at, exps))
            terms[exps] = coef
        try:
            return cls(ring, terms)
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None


class MonomialMap(_Frozen):
    """A ring map sending every variable to a single monomial.

    These are exactly the substitutions compatible with the monomial
    power-structure kernel; evaluating all variables at 1 (the Euler
    characteristic of a class) is the special case where every image is
    the empty monomial.  General polynomial images are rejected because
    they do not commute with the kernel.
    """

    __slots__ = ("source", "target", "_image_exps")

    def __init__(self, source: RingDescriptor, target: RingDescriptor,
                 images: Mapping[str, Polynomial]):
        image_exps = []
        for name in source.variables:
            if name not in images:
                raise ValueError("no image given for variable %r" % name)
            img = images[name]
            if img.ring != target:
                raise RingMismatchError(
                    "image of %r lives in %s, expected %s" % (name, img.ring, target)
                )
            if not img.is_unit_monomial():
                raise ValueError(
                    "image of %r must be a single monomial with coefficient 1, got %s"
                    % (name, img)
                )
            image_exps.append(next(iter(img.terms)))
        extra = set(images) - set(source.variables)
        if extra:
            raise ValueError("images given for unknown variables %s" % sorted(extra))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_image_exps", tuple(image_exps))

    @classmethod
    def evaluate_at_ones(cls, source: RingDescriptor) -> "MonomialMap":
        one = Polynomial.one(INTEGERS)
        return cls(source, INTEGERS, {name: one for name in source.variables})

    @classmethod
    def identity(cls, ring: RingDescriptor) -> "MonomialMap":
        return cls(ring, ring, {name: Polynomial.variable(ring, name) for name in ring.variables})

    def __call__(self, p: Polynomial) -> Polynomial:
        if p.ring != self.source:
            raise RingMismatchError(
                "polynomial over %s, map expects %s" % (p.ring, self.source)
            )
        tvars = self.target.nvars
        images = self._image_exps
        out: Dict[Exponents, int] = {}
        for exps, coef in p.terms.items():
            acc = [0] * tvars
            for e, img in zip(exps, images):
                if e:
                    for i, ei in enumerate(img):
                        acc[i] += e * ei
            key = tuple(acc)
            s = out.get(key, 0) + coef
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        if not self.target.laurent:
            for key in out:
                if any(e < 0 for e in key):
                    raise ValueError(
                        "substitution produced negative exponent %r in non-Laurent ring %s"
                        % (key, self.target)
                    )
        return Polynomial._raw(self.target, out)
