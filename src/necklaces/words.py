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
subclass that only prints in parentheses.  canonical_rotation finds that
rotation as the least, compared in C, of the plain-tuple rotations that
start at the least letter, or of the string rotations of a word's code
string, with one implementation for both; that is quadratic in the worst
case, a long word made mostly of its least letter.  x1 is the int 0: no
code may test a letter's truth value.
"""

from __future__ import annotations

import re


class Letter(int):
    """One generator symbol, e.g. x2 or x2*, whose int value is its code.

    Letters are interned: Letter(i, starred) is always the same object, so
    its attributes are read-only.
    """

    _cache: dict[int, "Letter"] = {}

    def __new__(cls, index: int, starred: bool = False):
        # before the cache is read: Letter(1, 2) and Letter(2.5) have codes
        # equal to those of x2 and x2*
        if type(index) is not int or type(starred) is not bool:
            raise TypeError(
                "a letter takes an int index and a bool star, got "
                f"{type(index).__name__} and {type(starred).__name__}"
            )
        if index < 1:
            raise ValueError(f"letter index must be >= 1, got {index}")
        code = 2 * (index - 1) + int(starred)
        cached = cls._cache.get(code)
        if cached is not None:
            return cached
        obj = cls._cache[code] = int.__new__(cls, code)
        name = f"x{index}" + ("*" if starred else "")
        obj.__dict__.update(index=index, starred=bool(starred), code=code, name=name)
        return obj

    def __setattr__(self, *args):
        raise AttributeError("Letter is immutable")

    __delattr__ = __setattr__

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


EMPTY_WORD = Word()


def word(*items) -> Word:
    """Build a word from Letters or letter codes, or strings of letter names."""
    out = []
    for it in items:
        if isinstance(it, int) and type(it) is not bool:  # a Letter is its own code
            out.append(Letter.from_code(it))
        elif isinstance(it, str):
            out.extend(parse_word(it))
        else:
            raise TypeError(f"cannot make a word from {it!r}")
    return Word(out)


def canonical_rotation(w):
    """Lexicographically minimal rotation of w under the fixed letter order.

    w is a Word, or the code string of one (each letter as chr(code), see
    brackets.necklace_bracket), and the result is of the same kind: a Word
    for a Word, a str for a str.  Code-point order is the letter order, so
    both kinds give the same rotation.

    The least rotation starts at an occurrence of the least letter, so this
    is the least of the rotations (w + w)[i:i + n] that start there; `index`
    and `count`, which both kinds have, find those starts in C.  The slices
    are plain tuples of int letters, or strings, all of length n, so they
    compare in C, and tuple order on them is the (length, codes) order.
    The cost is quadratic in n when the least letter fills much of the
    word: at length 181, x1^180 x1* as a Word takes about four times as
    long as Booth's linear-time algorithm, and (x1x1x1*)^60 x1* about two
    and a half times; as code strings both take less time than Booth's.
    On random words up to length 60, and on the words the bracket kernels
    canonicalize, it is the faster of the two in both kinds.
    """
    n = len(w)
    if n <= 1:
        return w
    least = min(w)
    i = w.index(least)
    doubled = w + w
    best = doubled[i:i + n]
    for _ in range(w.count(least) - 1):
        i = w.index(least, i + 1)
        rotation = doubled[i:i + n]
        if rotation < best:
            best = rotation
    return best if isinstance(w, str) else Word(best)


# --- textual grammar -------------------------------------------------------
#
# Letters print as "x1", "x1*"; words as plain concatenation ("x1x1*"), with
# "·" and blanks accepted as optional separators.  "x" and "x*" are aliases
# for the d = 1 letters on input.  "1" is the empty word.  A custom alphabet
# replaces the letter token by its names, longest first, with the same
# separators.

_SEPARATORS = r"|1|·|\s+"
_TOKEN = re.compile(r"x(\d*)(\*?)" + _SEPARATORS)


def _excerpt(text: str) -> str:
    """How an error names a literal: its first 24 characters, then "..."."""
    return text if len(text) <= 24 else f"{text[:24]}..."


# a literal of more digits is refused before int() meets its 4,300-digit
# limit; elements.parse_rational also bounds a literal's exponent by it
_MAX_DIGITS = 1000


def _check_digits(text: str, what: str) -> None:
    """Refuse text of more than _MAX_DIGITS digits, named by its start."""
    if sum(map(str.isdecimal, text)) > _MAX_DIGITS:
        raise ValueError(f"{what} {_excerpt(text)!r} has more than {_MAX_DIGITS} digits")


def _tokenizer(alphabet: dict[str, Letter] | None) -> re.Pattern:
    if alphabet is None:
        return _TOKEN
    if not alphabet or "" in alphabet:
        raise ValueError("an alphabet needs at least one name, and no empty name")
    names = sorted(alphabet, key=len, reverse=True)
    return re.compile(f"({'|'.join(map(re.escape, names))})" + _SEPARATORS)


def parse_word(text: str, alphabet: dict[str, Letter] | None = None) -> Word:
    """Parse a single word.  `alphabet` maps custom letter names, e.g. e12."""
    token = _tokenizer(alphabet)
    text = text.strip()
    out = []
    pos = 0
    while pos < len(text):
        m = token.match(text, pos)
        if m is None:
            raise ValueError(f"cannot parse word at {_excerpt(text[pos:])!r}")
        name = m.group(1)
        # "1", "·" and whitespace leave the letter group unmatched
        if name is not None:
            if alphabet is None:
                out.append(Letter(int(name) if name else 1, m.group(2) == "*"))
            else:
                out.append(alphabet[name])
        pos = m.end()
    return Word(out)


def format_word(w: Word, names: dict[Letter, str] | None = None) -> str:
    if not w:
        return "1"
    if names is None:
        return "".join([a.name for a in w])
    return "".join([names.get(a, a.name) for a in w])
