"""Free-group words over the crosscap generators ``x1 .. xg``.

The fundamental group of a genus-``g`` non-orientable surface with one
boundary circle is free on ``g`` generators, one for each crosscap.  A
letter is stored as a nonzero integer: ``+i`` means ``x_i`` and ``-i``
means ``x_i``-inverse.  :class:`Word` keeps its letters freely reduced,
so equal group elements always compare equal; :class:`CyclicWord` goes
one step further and canonicalises up to conjugation, which is what a
free homotopy class of loops needs.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

_TOKEN_RE = re.compile(r"x(\d+)(?:\^(-?\d+))?$")

#: The most letters :meth:`Word.parse` expands a text into.  A token
#: ``x1^k`` spells k letters, so the bound is checked before they are built.
MAX_PARSED_LETTERS = 100_000


class Record:
    """Base of the package's immutable records.

    A record names its fields once, in ``__slots__``.  The constructor
    takes them by position, then by keyword, and raises ``TypeError`` when
    one is missing, given twice or unknown; a record that checks its values
    does so in its own ``__init__`` and then calls this one.  Afterwards,
    assigning or deleting an attribute raises ``AttributeError``.
    Equality, hash and repr run over the fields in ``__slots__`` order: a
    record equals only a record of its own class with equal fields, and
    hashes as the tuple of its fields.
    """

    __slots__ = ()

    def __init__(self, *values: object, **fields: object) -> None:
        names = self.__slots__
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        if fields or len(values) != len(names):
            if len(values) + len(fields) == len(names):
                for name in names[len(values) :]:
                    if name not in fields:
                        break
                    object.__setattr__(self, name, fields[name])
                else:
                    return
            raise TypeError(
                f"{self.__class__.__qualname__}() takes the fields {', '.join(names)}; "
                f"got {len(values)} by position and {', '.join(fields) or 'none'} by keyword"
            )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # field by field, as tuples compare, without building the tuples
        for name in self.__slots__:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and not mine == theirs:
                return False
        return True

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self.__slots__]))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for s in letters:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _letter_key(s: int) -> tuple[int, int]:
    # x1 < x1^-1 < x2 < x2^-1 < ...
    return (abs(s), 0 if s > 0 else 1)


def letter_str(s: int) -> str:
    """Render one signed letter, e.g. ``3 -> 'x3'`` and ``-3 -> 'x3^-1'``."""
    return f"x{s}" if s > 0 else f"x{-s}^-1"


class Word(Record):
    """A freely reduced word in the free group on ``x1 .. x<genus>``.

    Instances are immutable and hashable.  Multiplication concatenates
    and reduces; ``inverse()`` inverts.  The empty word is the group
    identity and prints as ``"1"``.
    """

    __slots__ = ("genus", "letters")

    def __init__(self, genus: int, letters: tuple[int, ...] = ()) -> None:
        if genus < 1:
            raise ValueError(f"genus must be a positive integer, got {genus}")
        letters = tuple(letters)
        for s in letters:
            if not isinstance(s, int) or s == 0 or abs(s) > genus:
                raise ValueError(
                    f"letter {s!r} is not valid for genus {genus} "
                    f"(expected nonzero integers with |letter| <= {genus})"
                )
        super().__init__(genus, _reduce(letters))

    @classmethod
    def _trusted(cls, genus: int, letters: tuple[int, ...]) -> "Word":
        """A word whose letters are known to be valid for `genus` and freely
        reduced; nothing is checked, so callers must guarantee both."""
        word = object.__new__(cls)
        object.__setattr__(word, "genus", genus)
        object.__setattr__(word, "letters", letters)
        return word

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(letter_str(s) for s in self.letters)

    def __repr__(self) -> str:
        return f"Word(genus={self.genus}, {str(self)!r})"

    # -- group operations ----------------------------------------------

    def _check_compatible(self, other: "Word") -> None:
        if not isinstance(other, Word):
            raise TypeError(f"expected a Word, got {type(other).__name__}")
        if other.genus != self.genus:
            raise ValueError(
                f"cannot combine words of genus {self.genus} and {other.genus}"
            )

    def __mul__(self, other: "Word") -> "Word":
        self._check_compatible(other)
        # both factors are reduced, so cancellation happens only at the seam
        left, right = self.letters, other.letters
        n, cut = len(left), 0
        while cut < n and cut < len(right) and left[n - 1 - cut] == -right[cut]:
            cut += 1
        return Word._trusted(self.genus, left[: n - cut] + right[cut:])

    def inverse(self) -> "Word":
        return Word._trusted(self.genus, tuple(-s for s in reversed(self.letters)))

    # -- invariants ------------------------------------------------------

    def exponent_vector(self) -> tuple[int, ...]:
        """Exponent sum of each generator, i.e. the image in Z^genus."""
        vec = [0] * self.genus
        for s in self.letters:
            vec[abs(s) - 1] += 1 if s > 0 else -1
        return tuple(vec)

    # -- parsing ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str, genus: int) -> "Word":
        """Parse a whitespace-separated word such as ``"x1 x2^-1 x1^2"``.

        The token ``1`` denotes the identity and may appear alone or
        mixed into a longer word.  Raises :class:`ValueError` on any
        token that does not match ``x<i>`` or ``x<i>^<k>``, and on a token
        that would take the word past ``MAX_PARSED_LETTERS`` letters
        before reduction.
        """
        letters: list[int] = []
        for tok in text.split():
            if tok == "1":
                continue
            m = _TOKEN_RE.match(tok)
            if m is None:
                raise ValueError(f"cannot parse word token {tok!r}")
            idx = int(m.group(1))
            if idx < 1 or idx > genus:
                raise ValueError(
                    f"generator x{idx} out of range for genus {genus}"
                )
            exp_text = m.group(2) or "1"
            # more digits than the bound has means past it: never convert those
            digits = exp_text.lstrip("-").lstrip("0")
            if (
                len(digits) > len(str(MAX_PARSED_LETTERS))
                or len(letters) + abs(int(exp_text)) > MAX_PARSED_LETTERS
            ):
                raise ValueError(
                    f"word token {tok!r} takes the word past "
                    f"{MAX_PARSED_LETTERS} letters"
                )
            exp = int(exp_text)
            letters.extend([idx if exp > 0 else -idx] * abs(exp))
        return cls(genus, tuple(letters))


def boundary_word(genus: int) -> Word:
    """The boundary class ``x1^2 x2^2 ... xg^2`` of the one-holed surface.

    Every self-map we build is required to fix this element exactly,
    which pins the maps to the mapping class group of the bounded
    surface rather than its quotient.
    """
    letters: list[int] = []
    for i in range(1, genus + 1):
        letters.extend((i, i))
    return Word(genus, tuple(letters))


def _cyclic_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return letters[lo:hi]


def _least_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    # Duval's Lyndon factorisation of letters + letters (J. Algorithms 4,
    # 1983), in _letter_key order: the least rotation starts where the
    # last Lyndon factor that begins in the first copy begins.  Linear time.
    n = len(letters)
    keys = [_letter_key(s) for s in letters] * 2
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and keys[k] <= keys[j]:
            k = i if keys[k] < keys[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return letters[start:] + letters[:start]


class CyclicWord(Record):
    """Canonical form of a conjugacy class in the free group.

    Two words are conjugate iff their cyclic reductions are rotations
    of one another, so the canonical form is the lexicographically
    least rotation of the cyclic reduction.  Construction canonicalises
    whatever letters are passed in.
    """

    __slots__ = ("genus", "letters")

    def __init__(self, genus: int, letters: tuple[int, ...] = ()) -> None:
        super().__init__(genus, Word(genus, letters).letters)  # validates + reduces
        self.__post_init__()  # a method of its own: perfbench times it by name

    def __post_init__(self) -> None:
        """Canonicalise ``letters``, which must already be freely reduced."""
        object.__setattr__(self, "letters", _least_rotation(_cyclic_reduce(self.letters)))

    @classmethod
    def of(cls, word: Word) -> "CyclicWord":
        """The class of a word, whose letters are valid and reduced already."""
        cyclic = object.__new__(cls)
        object.__setattr__(cyclic, "genus", word.genus)
        object.__setattr__(cyclic, "letters", word.letters)
        cyclic.__post_init__()
        return cyclic

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(letter_str(s) for s in self.letters)

    def __repr__(self) -> str:
        return f"CyclicWord(genus={self.genus}, {str(self)!r})"

    def inverse(self) -> "CyclicWord":
        return CyclicWord.of(Word._trusted(self.genus, tuple(-s for s in reversed(self.letters))))

    def unoriented(self) -> "CyclicWord":
        """Canonical form of the pair {class, inverse class}.

        An unoriented curve does not distinguish a loop from its
        reverse, so comparisons of curve classes go through this.
        """
        inv = self.inverse()
        keys_self = [_letter_key(s) for s in self.letters]
        keys_inv = [_letter_key(s) for s in inv.letters]
        return self if keys_self <= keys_inv else inv


def is_conjugate(u: Word, v: Word) -> bool:
    """Decide whether two words are conjugate in the free group."""
    if u.genus != v.genus:
        raise ValueError(
            f"cannot compare words of genus {u.genus} and {v.genus}"
        )
    return CyclicWord.of(u) == CyclicWord.of(v)
