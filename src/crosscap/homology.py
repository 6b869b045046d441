"""First-homology actions of mapping classes, over Z and over Z/2.

Abelianising a free-group automorphism gives an integer matrix whose
column ``i`` is the exponent vector of the image of ``x_i``, which the
``homology`` command prints.  Over Z/2 a class is an int bit row (bit
``i - 1`` for ``x_i``), built only here, by :func:`mod2_class`: the
registry checks of ``surface`` read it, and so does
:func:`transvection_fault`.  The intersection form ``B`` in the crosscap
basis is the dot product, so the twist along a two-sided curve with
class ``c`` acts as the transvection ``z -> z + B(z, c) c``;
``verify-theorem`` checks that identity on every derived twist and its
inverse, an independent check of the word-level engine against the
curve each twist is derived from.  At run time this module needs only
``words``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from crosscap.words import Record, Word

if TYPE_CHECKING:
    from crosscap.twists import Automorphism


class HomologyMatrix(Record):
    """Integer matrix of a map on H1(N; Z), columns indexed by x1..xg."""

    __slots__ = ("genus", "rows")

    def __init__(self, genus: int, rows: tuple[tuple[int, ...], ...]) -> None:
        rows = tuple(tuple(int(e) for e in r) for r in rows)
        if len(rows) != genus or any(len(r) != genus for r in rows):
            raise ValueError(f"expected a {genus}x{genus} matrix")
        super().__init__(genus, rows)

    def det(self) -> int:
        """Exact integer determinant.

        Expanding along a column equal to e_j (Laplace) leaves the minor
        without row and column j, where the other such columns are unit
        columns still.  So the determinant is that of the block of the other
        rows and columns (at most four for a twist), by fraction-free
        Bareiss elimination: step k replaces row i by (m[i] * pivot -
        m[i][k] * m[k]) / prev, which leaves a row with m[i][k] == 0 when
        pivot == prev unchanged, so it is skipped.
        """
        rows, n = self.rows, self.genus
        keep = [j for j, col in enumerate(zip(*rows)) if col[j] != 1 or col.count(0) != n - 1]
        if not keep:
            return 1
        n, m = len(keep), [[rows[i][j] for j in keep] for i in keep]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for r in range(k + 1, n):
                    if m[r][k] != 0:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = m[k][k]
            for i in range(k + 1, n):
                if m[i][k] == 0 and pivot == prev:
                    continue
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = pivot
        return sign * m[n - 1][n - 1]

    def structured(self) -> str:
        body = ";".join(",".join(str(e) for e in row) for row in self.rows)
        return f"{self.genus};{body}"

    def format_text(self) -> str:
        width = max(len(str(e)) for row in self.rows for e in row)
        return "\n".join(
            " ".join(f"{e:>{width}}" for e in row) for row in self.rows
        )


def abelianize(auto: Automorphism) -> HomologyMatrix:
    """Integer homology matrix of an automorphism (columns = images)."""
    cols = [w.exponent_vector() for w in auto.images]
    return HomologyMatrix(auto.genus, tuple(zip(*cols)))


def mod2_class(word: Word) -> int:
    """The class of `word` in H1(N; Z/2) as a bit row: bit i - 1 is the
    parity of the exponent sum of x_i, an XOR over the letters."""
    row = 0
    for s in word.letters:
        row ^= 1 << (abs(s) - 1)
    return row


def transvection_fault(images: Sequence[Word], c: int) -> int | None:
    """The first column j at which the map with these generator images is
    not, mod 2, the transvection z -> z + B(z, c) c; None if it is.

    Column j is the bit row of the image of x_{j+1}.  B is the dot product,
    so the transvection's column j is e_j, plus c when bit j of c is set.
    A class of odd weight is no two-sided curve's: the answer is -1.
    """
    if c.bit_count() % 2:
        return -1
    for j, image in enumerate(images):
        if mod2_class(image) != (1 << j) ^ (c if c >> j & 1 else 0):
            return j
    return None
