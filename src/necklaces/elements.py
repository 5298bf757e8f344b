"""Exact linear combinations: free-algebra elements, necklaces, tensors.

Keys are words (tuples of int-coded letters, see words), necklaces, or
tuples of those.  A necklace is the word of its least rotation: a Word
subclass that only prints differently.  Words and necklaces order
themselves by (length, codes), so iterating a combination sorts by the key
itself.  A coefficient is an int, or a fractions.Fraction whose denominator
is not 1: _coeff, the one coercion point, stores an integral Fraction as
its int numerator, so integer arithmetic stays in int until a true quotient
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

from .words import EMPTY_WORD, Letter, Word, canonical_rotation, format_word, parse_word


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

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=lambda kv: kv[0]))

    def coefficient(self, key):
        return self.terms.get(key, 0)


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
    def representative(self) -> "Necklace":
        """The canonical word, which is the necklace itself."""
        return self

    @property
    def degree(self) -> int:
        return len(self)

    def __repr__(self):
        return f"({format_word(self)})"


UNIT_NECKLACE = Necklace()


class NecklaceElement(_Combination):
    """An element of the necklace space: finite map Necklace -> coefficient."""

    @classmethod
    def of(cls, n, c=1) -> "NecklaceElement":
        return cls({Necklace.of(n): c})

    @classmethod
    def unit(cls, c=1) -> "NecklaceElement":
        return cls({UNIT_NECKLACE: c})

    def degrees(self):
        return sorted({n.degree for n in self.terms})

    def __repr__(self):
        return format_element(self)


def project_to_necklace(e: FreeElement) -> NecklaceElement:
    """Linear projection onto cyclic-equivalence classes.

    Kills every commutator: project_to_necklace(ab - ba) == 0.
    """
    out = {}
    for w, c in e.terms.items():
        k = Necklace.of(w)
        out[k] = out.get(k, 0) + c
    return NecklaceElement(out)


def _as_necklace_element(e) -> NecklaceElement:
    if isinstance(e, NecklaceElement):
        return e
    if isinstance(e, FreeElement):
        return project_to_necklace(e)
    if isinstance(e, (Word, str)):
        return NecklaceElement.of(e)
    raise TypeError(f"expected a necklace element, got {type(e).__name__}")


class TensorElement(_Combination):
    """An element of A (x) A: finite map (Word, Word) -> coefficient."""

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

    def inner(self, left: Word, right: Word) -> "TensorElement":
        """Inner action a o (u (x) v) o c = (u c) (x) (a v)."""
        return TensorElement(
            {(u * right, left * v): c for (u, v), c in self.terms.items()}
        )

    def collapse(self) -> FreeElement:
        """Multiplication map: u (x) v -> uv."""
        out = {}
        for (u, v), c in self.terms.items():
            k = u * v
            out[k] = out.get(k, 0) + c
        return FreeElement(out)

    def __repr__(self):
        items = [
            f"{c}*{format_word(u)}(x){format_word(v)}"
            for (u, v), c in self
        ]
        return " + ".join(items) if items else "0"


class TripleTensor(_Combination):
    """An element of A (x) A (x) A, with the cyclic-shift actions."""

    def shift(self) -> "TripleTensor":
        """sigma: a (x) b (x) c -> c (x) a (x) b."""
        return TripleTensor({(c, a, b): v for (a, b, c), v in self.terms.items()})

    def shift_inv(self) -> "TripleTensor":
        """sigma^{-1}: a (x) b (x) c -> b (x) c (x) a."""
        return TripleTensor({(b, c, a): v for (a, b, c), v in self.terms.items()})

    def __repr__(self):
        items = [
            f"{v}*{format_word(a)}(x){format_word(b)}(x){format_word(c)}"
            for (a, b, c), v in self
        ]
        return " + ".join(items) if items else "0"


# --- element grammar -------------------------------------------------------

_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_element(text: str, alphabet: dict[str, Letter] | None = None) -> FreeElement:
    """Parse "c1*w1 + c2*w2" with exact rational coefficients "p/q"."""
    text = text.strip()
    if not text or text == "0":
        return FreeElement()
    # split into signed terms at top level
    terms: list[str] = []
    buf = ""
    for ch in text:
        if ch in "+-" and buf.strip() and not buf.rstrip().endswith(("+", "-")):
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    out: dict = {}
    for term in terms:
        term = term.strip()
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:].strip()
        m = _RATIONAL.match(term)
        coeff = 1
        if m and (m.end() == len(term) or not term[m.start()].isalpha()):
            coeff = Fraction(m.group(0))
            term = term[m.end():].strip()
            if term.startswith("*"):
                term = term[1:].strip()
        w = parse_word(term, alphabet) if term else EMPTY_WORD
        out[w] = out.get(w, 0) + sign * coeff
    return FreeElement(out)


def _signed_sum(terms) -> str:
    """Render (coefficient, body) pairs as "b1 + 2*b2 - b3": coefficients 1
    and -1 are left out and an empty body is a constant; no terms give "0"."""
    text = ""
    for c, body in terms:
        if not body:
            chunk = str(c)
        elif c == 1:
            chunk = body
        elif c == -1:
            chunk = f"-{body}"
        else:
            chunk = f"{c}*{body}"
        if not text:
            text = chunk
        else:
            text += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
    return text or "0"


def format_element(e, names: dict[Letter, str] | None = None) -> str:
    """Render a FreeElement or NecklaceElement in the textual grammar."""
    return _signed_sum((c, format_word(k, names)) for k, c in e)
