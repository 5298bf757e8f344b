"""Words over a doubled alphabet and their canonical cyclic rotations.

The alphabet consists of letters x1, x1*, x2, x2*, ... with the fixed total
order x1 < x1* < x2 < x2* < ...; all canonical forms in the package are
derived from this order.
"""

from __future__ import annotations

import re


class Letter:
    """One generator symbol, e.g. x2 or x2*.

    Letters are interned, so identity and equality coincide.  `code` realizes
    the global order: code(x_i) = 2(i-1), code(x_i*) = 2(i-1)+1.
    """

    __slots__ = ("index", "starred", "code")
    _cache: dict[int, "Letter"] = {}

    def __new__(cls, index: int, starred: bool = False):
        if index < 1:
            raise ValueError(f"letter index must be >= 1, got {index}")
        code = 2 * (index - 1) + int(starred)
        cached = cls._cache.get(code)
        if cached is not None:
            return cached
        obj = object.__new__(cls)
        object.__setattr__(obj, "index", index)
        object.__setattr__(obj, "starred", bool(starred))
        object.__setattr__(obj, "code", code)
        cls._cache[code] = obj
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Letter is immutable")

    @staticmethod
    def from_code(code: int) -> "Letter":
        return Letter(code // 2 + 1, bool(code & 1))

    @property
    def name(self) -> str:
        return f"x{self.index}" + ("*" if self.starred else "")

    def __repr__(self):
        return self.name

    def __hash__(self):
        return self.code

    def __eq__(self, other):
        return self is other

    def __lt__(self, other):
        return self.code < other.code

    def __le__(self, other):
        return self.code <= other.code


def letters(d: int) -> tuple[Letter, ...]:
    """The 2d letters x1, x1*, ..., xd, xd* in order."""
    return tuple(Letter.from_code(c) for c in range(2 * d))


def unstarred(d: int) -> tuple[Letter, ...]:
    """The d letters x1, ..., xd (no stars); the alphabet of linear rules."""
    return tuple(Letter(i) for i in range(1, d + 1))


class Word:
    """An immutable word in the letters; the empty word is the unit 1."""

    __slots__ = ("letters", "_hash")

    def __init__(self, items=()):
        object.__setattr__(self, "letters", tuple(items))
        object.__setattr__(self, "_hash", hash(self.letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        got = self.letters[i]
        return Word(got) if isinstance(i, slice) else got

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __lt__(self, other):
        return self._sort_key() < other._sort_key()

    def _sort_key(self):
        return (len(self.letters), tuple(a.code for a in self.letters))

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def __repr__(self):
        return format_word(self)

    @property
    def degree(self) -> int:
        return len(self.letters)

    def deg_unstarred(self) -> int:
        return sum(1 for a in self.letters if not a.starred)

    def deg_starred(self) -> int:
        return sum(1 for a in self.letters if a.starred)

    def rotated(self, k: int) -> "Word":
        """Left rotation by k: a1...an -> a(k+1)...an a1...ak."""
        if not self.letters:
            return self
        k %= len(self.letters)
        return Word(self.letters[k:] + self.letters[:k])

    def rotations(self):
        return [self.rotated(k) for k in range(max(1, len(self.letters)))]

    def max_index(self) -> int:
        return max((a.index for a in self.letters), default=0)


EMPTY_WORD = Word()


def word(*items) -> Word:
    """Build a word from Letters, letter codes, or strings of letter names."""
    out = []
    for it in items:
        if isinstance(it, Letter):
            out.append(it)
        elif isinstance(it, int):
            out.append(Letter.from_code(it))
        elif isinstance(it, str):
            out.extend(parse_word(it).letters)
        else:
            raise TypeError(f"cannot make a word from {it!r}")
    return Word(out)


def _least_rotation_index(codes) -> int:
    """Index of the lexicographically least rotation (Booth's algorithm)."""
    n = len(codes)
    if n == 0:
        return 0
    doubled = codes + codes
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
    codes = [a.code for a in w.letters]
    return w.rotated(_least_rotation_index(codes))


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
    if not w.letters:
        return "1"
    if names is None:
        return "".join(a.name for a in w.letters)
    return "".join(names.get(a, a.name) for a in w.letters)
