"""Exact linear combinations: free-algebra elements, necklaces, tensors.

Keys are words (tuples of int-coded letters, see words), necklaces, or
tuples of those.  A necklace is the word of its least rotation: a Word
subclass that only prints differently.  Words and necklaces order
themselves by (length, codes), and iterating a combination sorts its terms
in that order, by a key of plain ints and tuples that compares in C.  A
coefficient is an int, or a fractions.Fraction whose denominator is not 1:
_coeff, the one coercion point, stores an integral Fraction as its int
numerator, so integer arithmetic stays in int until a true quotient
appears.  Printing, equality and hashing are the same either way, since
str(3) == str(Fraction(3)), 3 == Fraction(3) and their hashes agree.

_Combination is the package's one sparse-map core (multipoly.Polynomial
builds on it too), and its constructor is the only place that prunes zero
coefficients: operations accumulate into a plain dict with
out[k] = out.get(k, 0) + c and hand it to the constructor, so the empty
combination is the canonical zero.  Every value is immutable after
construction and all operations are pure.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .words import EMPTY_WORD, Letter, Word, _check_digits, _excerpt, _MAX_DIGITS
from .words import canonical_rotation, format_word, parse_word


def _coeff(c) -> int | Fraction:
    """c as a stored coefficient: an int, or a Fraction that is not integral.

    A bool or a Letter is an int underneath but not a scalar, and raises.
    """
    if type(c) is int:
        return c
    if isinstance(c, (int, str)) and not isinstance(c, (bool, Letter)):
        c = Fraction(c)
    elif not isinstance(c, Fraction):
        raise TypeError(f"coefficient must be exact (int/Fraction), got {type(c).__name__}")
    return c.numerator if c.denominator == 1 else c


class _Combination:
    """Shared machinery for finite maps basis-key -> coefficient; the
    constructor drops zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, v in terms.items():
                if type(v) is not int:  # the common case needs no call
                    v = _coeff(v)
                if v:
                    clean[k] = v
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        # 0 and Fraction(0) alike; a bool or a Letter is an int but not a
        # scalar, so not zero either
        if (type(other) is int or isinstance(other, Fraction)) and other == 0:
            return not self.terms
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self):
        # the empty combination equals 0, so it hashes like 0
        return hash(frozenset(self.terms.items())) if self.terms else 0

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return type(self)(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)({k: -v for k, v in self.terms.items()})

    def scaled(self, c):
        c = _coeff(c)
        if not c:
            return type(self)()
        return type(self)({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scaled(c)
        return NotImplemented

    def __truediv__(self, c):
        return self.scaled(Fraction(1, 1) / _coeff(c))

    # the sort key of a (key, coefficient) item; subclasses whose keys are
    # words give one that compares in C, see _by_word and _by_words
    _order = staticmethod(lambda kv: kv[0])

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=self._order))

    def coefficient(self, key):
        return self.terms.get(key, 0)


def _by_word(kv):
    """Word's (length, codes) order as a key of plain ints and tuples."""
    w = kv[0]
    return len(w), tuple(w)


def _by_words(kv):
    """The elementwise _by_word key of a tuple of words."""
    return tuple([(len(w), tuple(w)) for w in kv[0]])


def _power(base, n: int, one):
    """base**n by square-and-multiply; `one` is the multiplicative unit."""
    if n < 0:
        raise ValueError("negative powers are not supported")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class FreeElement(_Combination):
    """An element of the free algebra: finite map Word -> coefficient."""

    _order = staticmethod(_by_word)

    @classmethod
    def of(cls, w: Word, c=1) -> "FreeElement":
        return cls({w: c})

    @classmethod
    def unit(cls, c=1) -> "FreeElement":
        return cls({EMPTY_WORD: c})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, FreeElement):
            return NotImplemented
        out = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                k = wa * wb
                out[k] = out.get(k, 0) + ca * cb
        return FreeElement(out)

    def __pow__(self, n: int):
        return _power(self, n, FreeElement.unit())

    def commutator(self, other: "FreeElement") -> "FreeElement":
        return self * other - other * self

    def __repr__(self):
        return format_element(self)


class Necklace(Word):
    """A cyclic word, stored as the Word of its least rotation.

    It equals and hashes like that word, and like no other rotation, and
    orders by Word's (length, codes) order; it prints in parentheses, as
    (x1x1*).
    """

    __slots__ = ()

    def __new__(cls, w=EMPTY_WORD):
        if w != canonical_rotation(w):
            raise ValueError(f"{w!r} is not a canonical rotation")
        return tuple.__new__(cls, w)

    @classmethod
    def _unchecked(cls, letters) -> "Necklace":
        """A necklace from letters the caller knows to be in canonical
        rotation; skips the rotation check in __new__."""
        return tuple.__new__(cls, letters)

    @classmethod
    def of(cls, w) -> "Necklace":
        if isinstance(w, Necklace):
            return w
        if isinstance(w, str):
            w = parse_word(w)
        return tuple.__new__(cls, canonical_rotation(w))

    @property
    def degree(self) -> int:
        return len(self)

    def __repr__(self):
        return f"({format_word(self)})"


UNIT_NECKLACE = Necklace()


class NecklaceElement(_Combination):
    """An element of the necklace space: finite map Necklace -> coefficient."""

    _order = staticmethod(_by_word)

    @classmethod
    def of(cls, n, c=1) -> "NecklaceElement":
        return cls({Necklace.of(n): c})

    @classmethod
    def unit(cls, c=1) -> "NecklaceElement":
        return cls({UNIT_NECKLACE: c})

    def __repr__(self):
        return format_element(self)


def project_to_necklace(e: FreeElement) -> NecklaceElement:
    """Linear projection onto cyclic-equivalence classes.

    Kills every commutator: project_to_necklace(ab - ba) == 0.
    """
    # sums keyed by the least rotation, which hashes and compares like its
    # Necklace; only the nonzero sums become Necklaces
    out = {}
    for w, c in e.terms.items():
        k = canonical_rotation(w)
        out[k] = out.get(k, 0) + c
    return NecklaceElement({Necklace._unchecked(k): c for k, c in out.items() if c})


def _as_free(e) -> FreeElement:
    """A FreeElement, a Word, or text in the element grammar, as a FreeElement."""
    if isinstance(e, FreeElement):
        return e
    if isinstance(e, Word):
        return FreeElement.of(e)
    if isinstance(e, str):
        return parse_element(e)
    raise TypeError(f"expected a free-algebra element, got {type(e).__name__}")


def _as_necklace_element(e) -> NecklaceElement:
    """A NecklaceElement, a Word or necklace, or anything _as_free reads,
    projected, as a NecklaceElement."""
    if isinstance(e, NecklaceElement):
        return e
    if isinstance(e, Word):
        return NecklaceElement.of(e)
    return project_to_necklace(_as_free(e))


def _format_tensor(t) -> str:
    """Render a tensor as "c*w1(x)w2 + ..." in term order; no terms give "0"."""
    items = [f"{c}*{'(x)'.join(map(format_word, ws))}" for ws, c in t]
    return " + ".join(items) if items else "0"


class TensorElement(_Combination):
    """An element of A (x) A: finite map (Word, Word) -> coefficient; of,
    unit, flip, outer and collapse act on A (x) A.  It also holds the
    three-factor terms of brackets.verify_double_jacobi, keyed by triples."""

    _order = staticmethod(_by_words)

    @classmethod
    def of(cls, left: Word, right: Word, c=1) -> "TensorElement":
        return cls({(left, right): c})

    @classmethod
    def unit(cls, c=1) -> "TensorElement":
        return cls({(EMPTY_WORD, EMPTY_WORD): c})

    def flip(self) -> "TensorElement":
        """The swap (a (x) b) -> (b (x) a); an exact involution."""
        return TensorElement({(v, u): c for (u, v), c in self.terms.items()})

    def outer(self, left: Word, right: Word) -> "TensorElement":
        """Outer action a.(u (x) v).c = (a u) (x) (v c)."""
        return TensorElement(
            {(left * u, v * right): c for (u, v), c in self.terms.items()}
        )

    def collapse(self) -> FreeElement:
        """Multiplication map: u (x) v -> uv."""
        out = {}
        for (u, v), c in self.terms.items():
            k = u * v
            out[k] = out.get(k, 0) + c
        return FreeElement(out)

    __repr__ = _format_tensor


# --- element grammar -------------------------------------------------------

# a term: signs and blanks, then a body with no signs that may open with a
# coefficient "p" or "p/q" and an optional "*"; (?!\Z) stops at the end
_TERM = re.compile(r"(?!\Z)([\s+-]*)(?:(\d+(?:/\d+)?)\s*(\*?))?([^+-]*)")


# an exponent above words._MAX_DIGITS is refused before
# Fraction("1e999999999") builds a billion-digit integer
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """An exact rational from "p", "p/q" or any other literal Fraction reads;
    an unreadable literal, a zero denominator, more than _MAX_DIGITS digits
    or an exponent above it is a ValueError naming the input by _excerpt."""
    if isinstance(text, str):
        m = _EXPONENT.search(text)
        # five significant digits are past the bound, and no more are read
        if m and int(m[1].replace("_", "").lstrip("0")[:5] or 0) > _MAX_DIGITS:
            raise ValueError(f"exponent of {_excerpt(text)!r} is above {_MAX_DIGITS}")
        _check_digits(text, "number")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_excerpt(text)!r}") from None
    except ValueError:
        raise ValueError(f"invalid number {_excerpt(str(text))!r}") from None


def parse_element(text: str, alphabet: dict[str, Letter] | None = None) -> FreeElement:
    """Parse "c1*w1 + c2*w2" with exact rational coefficients "p/q"."""
    text = text.strip()
    out: dict = {}
    for m in _TERM.finditer(text):
        signs, p, star, body = m.groups()
        body = body.strip()
        coeff = parse_rational(p) if p else 1
        if not body and (star or not p):
            raise ValueError(f"empty term in {_excerpt(text)!r}")
        w = parse_word(body, alphabet) if body else EMPTY_WORD
        out[w] = out.get(w, 0) + (-coeff if signs.count("-") % 2 else coeff)
    return FreeElement(out)


def _signed_sum(terms) -> str:
    """Render (coefficient, body) pairs as "b1 + 2*b2 - b3": coefficients 1
    and -1 are left out and an empty body is a constant; no terms give "0"."""
    chunks = []
    for c, body in terms:
        if not body:
            chunk = str(c)
        elif c == 1:
            chunk = body
        elif c == -1:
            chunk = f"-{body}"
        else:
            chunk = f"{c}*{body}"
        if not chunks:
            chunks.append(chunk)
        elif chunk[0] == "-":
            chunks += (" - ", chunk[1:])
        else:
            chunks += (" + ", chunk)
    return "".join(chunks) or "0"


def format_element(e, names: dict[Letter, str] | None = None) -> str:
    """Render a FreeElement or NecklaceElement in the textual grammar."""
    return _signed_sum((c, format_word(k, names)) for k, c in e)
