"""Words over a doubled alphabet and their canonical cyclic rotations.

The alphabet consists of letters x1, x1*, x2, x2*, ... with the fixed total
order x1 < x1* < x2 < x2* < ...; all canonical forms in the package are
derived from this order.

A letter is its int code, code(x_i) = 2(i-1) and code(x_i*) = 2(i-1)+1, so
letters hash, compare and sort as ints; the Letter subclass only adds the
index, the star and the printed name.  A word is a tuple of letters, so
words hash and compare equal as tuples; the Word subclass adds the
(length, codes) order, concatenation by `*` and the printed form.  A
necklace (elements.Necklace) is the word of its least rotation, a Word
subclass that only prints in parentheses.  x1 is the int 0: no code may
test a letter's truth value.
"""

from __future__ import annotations

import re


class Letter(int):
    """One generator symbol, e.g. x2 or x2*, whose int value is its code.

    Letters are interned: Letter(i, starred) is always the same object.
    """

    _cache: dict[int, "Letter"] = {}

    def __new__(cls, index: int, starred: bool = False):
        if index < 1:
            raise ValueError(f"letter index must be >= 1, got {index}")
        code = 2 * (index - 1) + int(starred)
        cached = cls._cache.get(code)
        if cached is not None:
            return cached
        obj = cls._cache[code] = int.__new__(cls, code)
        obj.index, obj.starred, obj.code = index, bool(starred), code
        obj.name = f"x{index}" + ("*" if starred else "")
        return obj

    @staticmethod
    def from_code(code: int) -> "Letter":
        return Letter(code // 2 + 1, bool(code & 1))

    def __repr__(self):
        return self.name


def letters(d: int) -> tuple[Letter, ...]:
    """The 2d letters x1, x1*, ..., xd, xd* in order."""
    return tuple(Letter.from_code(c) for c in range(2 * d))


def unstarred(d: int) -> tuple[Letter, ...]:
    """The d letters x1, ..., xd (no stars); the alphabet of linear rules."""
    return tuple(Letter(i) for i in range(1, d + 1))


class Word(tuple):
    """An immutable word, the tuple of its letters; the empty word is the
    unit 1.  Words order by (length, codes) and `*` concatenates them."""

    __slots__ = ()

    def __lt__(self, other):
        if len(self) != len(other):
            return len(self) < len(other)
        return tuple.__lt__(self, other)

    # tuple's own >, <= and >= are lexicographic; keep them on this order
    def __gt__(self, other):
        return other < self

    def __le__(self, other):
        return not other < self

    def __ge__(self, other):
        return not self < other

    def __mul__(self, other):
        if isinstance(other, Word):
            return Word(self + other)
        # raise rather than return NotImplemented, which would fall back to
        # tuple repetition for an int
        raise TypeError(f"a word multiplies only a word, not {type(other).__name__}")

    __rmul__ = __mul__

    def __repr__(self):
        return format_word(self)

    def deg_unstarred(self) -> int:
        return sum(1 for a in self if not a.starred)

    def deg_starred(self) -> int:
        return sum(1 for a in self if a.starred)

    def rotated(self, k: int) -> "Word":
        """Left rotation by k: a1...an -> a(k+1)...an a1...ak."""
        if not self:
            return self
        k %= len(self)
        return Word(self[k:] + self[:k])

    def rotations(self):
        return [self.rotated(k) for k in range(max(1, len(self)))]

    def max_index(self) -> int:
        return max((a.index for a in self), default=0)


EMPTY_WORD = Word()


def word(*items) -> Word:
    """Build a word from Letters or letter codes, or strings of letter names."""
    out = []
    for it in items:
        if isinstance(it, int):  # a Letter is its own code
            out.append(Letter.from_code(it))
        elif isinstance(it, str):
            out.extend(parse_word(it))
        else:
            raise TypeError(f"cannot make a word from {it!r}")
    return Word(out)


def _least_rotation_index(w) -> int:
    """Index of the lexicographically least rotation (Booth's algorithm)."""
    n = len(w)
    if n == 0:
        return 0
    doubled = w + w
    fail = [-1] * (2 * n)
    least = 0
    for j in range(1, 2 * n):
        c = doubled[j]
        i = fail[j - least - 1]
        while i != -1 and c != doubled[least + i + 1]:
            if c < doubled[least + i + 1]:
                least = j - i - 1
            i = fail[i]
        if c != doubled[least + i + 1]:
            if c < doubled[least]:
                least = j
            fail[j - least] = -1
        else:
            fail[j - least] = i + 1
    return least % n


def canonical_rotation(w: Word) -> Word:
    """Lexicographically minimal rotation of w under the fixed letter order."""
    if len(w) <= 1:
        return w
    return w.rotated(_least_rotation_index(w))


# --- textual grammar -------------------------------------------------------
#
# Letters print as "x1", "x1*"; words as plain concatenation ("x1x1*"), with
# "·" accepted as an optional separator.  "x" and "x*" are aliases for the
# d = 1 letters on input.  "1" is the empty word.

_TOKEN = re.compile(r"x(\d*)(\*?)|1|·|\s+")


def parse_word(text: str, alphabet: dict[str, Letter] | None = None) -> Word:
    """Parse a single word.  `alphabet` maps custom letter names, e.g. e12."""
    text = text.strip()
    if alphabet is not None:
        names = sorted(alphabet, key=len, reverse=True)
        out, pos = [], 0
        while pos < len(text):
            if text[pos] in "· \t":
                pos += 1
                continue
            if text[pos] == "1" and not any(
                text.startswith(n, pos) for n in names
            ):
                pos += 1
                continue
            for n in names:
                if text.startswith(n, pos):
                    out.append(alphabet[n])
                    pos += len(n)
                    break
            else:
                raise ValueError(f"unknown letter at {text[pos:]!r}")
        return Word(out)
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot parse word at {text[pos:]!r}")
        tok = m.group(0)
        if tok[0] == "x":
            index = int(m.group(1)) if m.group(1) else 1
            out.append(Letter(index, m.group(2) == "*"))
        # "1", "·" and whitespace contribute no letters
        pos = m.end()
    return Word(out)


def format_word(w: Word, names: dict[Letter, str] | None = None) -> str:
    if not w:
        return "1"
    if names is None:
        return "".join(a.name for a in w)
    return "".join(names.get(a, a.name) for a in w)
