"""First-homology actions of mapping classes, over Z and over Z/2.

Abelianising a free-group automorphism gives an integer matrix whose
column ``i`` is the exponent vector of the image of ``x_i``; composition
of maps becomes matrix multiplication on the nose.  Over Z/2 the
intersection form in the crosscap basis is the identity, so the twist
along a two-sided curve with class ``c`` acts as the transvection
``z -> z + <z, c> c``, i.e. the matrix ``I + c c^T``.  Both facts are
used as cheap independent cross-checks on the exact word-level engine.
"""

from __future__ import annotations

from typing import Sequence

from crosscap.twists import Automorphism
from crosscap.words import Record, Word


def _check_square(genus: int, rows: tuple[tuple[int, ...], ...]) -> None:
    if len(rows) != genus or any(len(r) != genus for r in rows):
        raise ValueError(f"expected a {genus}x{genus} matrix")


class HomologyMatrix(Record):
    """Integer matrix of a map on H1(N; Z), columns indexed by x1..xg."""

    __slots__ = ("genus", "rows")

    def __init__(self, genus: int, rows: tuple[tuple[int, ...], ...]) -> None:
        rows = tuple(tuple(int(e) for e in r) for r in rows)
        _check_square(genus, rows)
        super().__init__(genus, rows)

    @classmethod
    def _trusted(cls, genus: int, rows: tuple[tuple[int, ...], ...]) -> "HomologyMatrix":
        """Rows that are tuples of ints already, as built here: only the shape is checked."""
        _check_square(genus, rows)
        matrix = object.__new__(cls)
        Record.__init__(matrix, genus, rows)
        return matrix

    @classmethod
    def identity(cls, genus: int) -> "HomologyMatrix":
        return cls(
            genus,
            tuple(
                tuple(1 if i == j else 0 for j in range(genus))
                for i in range(genus)
            ),
        )

    def __mul__(self, other: "HomologyMatrix") -> "HomologyMatrix":
        if not isinstance(other, HomologyMatrix):
            return NotImplemented
        if other.genus != self.genus:
            raise ValueError("matrix sizes differ")
        # row i of the product is the sum of a * (row k of other) over the
        # entries a = self[i][k]; twist matrices are near the identity, so
        # most entries are zero and are skipped
        rows = []
        for row in self.rows:
            acc = [0] * self.genus
            for a, other_row in zip(row, other.rows):
                if a:
                    acc = [s + a * b for s, b in zip(acc, other_row)]
            rows.append(tuple(acc))
        return HomologyMatrix._trusted(self.genus, tuple(rows))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.genus:
            raise ValueError("vector length differs from matrix size")
        return tuple(
            sum(self.rows[i][k] * vector[k] for k in range(self.genus))
            for i in range(self.genus)
        )

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

    def mod2(self) -> "Mod2Matrix":
        return Mod2Matrix(
            self.genus, tuple(tuple(e % 2 for e in r) for r in self.rows)
        )

    def structured(self) -> str:
        body = ";".join(",".join(str(e) for e in row) for row in self.rows)
        return f"{self.genus};{body}"

    def format_text(self) -> str:
        width = max(len(str(e)) for row in self.rows for e in row)
        return "\n".join(
            " ".join(f"{e:>{width}}" for e in row) for row in self.rows
        )


class Mod2Matrix(Record):
    """Matrix of a map on H1(N; Z/2) in the crosscap basis."""

    __slots__ = ("genus", "rows")

    def __init__(self, genus: int, rows: tuple[tuple[int, ...], ...]) -> None:
        rows = tuple(tuple(int(e) % 2 for e in r) for r in rows)
        _check_square(genus, rows)
        super().__init__(genus, rows)

    @classmethod
    def identity(cls, genus: int) -> "Mod2Matrix":
        return HomologyMatrix.identity(genus).mod2()

    @classmethod
    def transvection(cls, genus: int, cls_vector: Sequence[int]) -> "Mod2Matrix":
        """The twist action z -> z + <z, c> c for a two-sided class c."""
        c = [int(v) % 2 for v in cls_vector]
        if len(c) != genus:
            raise ValueError("class vector length differs from genus")
        if sum(c) % 2 != 0:
            raise ValueError("a two-sided curve has even mod-2 class weight")
        rows = tuple(
            tuple((1 if i == j else 0) ^ (c[i] & c[j]) for j in range(genus))
            for i in range(genus)
        )
        return cls(genus, rows)

    def __mul__(self, other: "Mod2Matrix") -> "Mod2Matrix":
        if not isinstance(other, Mod2Matrix):
            return NotImplemented
        if other.genus != self.genus:
            raise ValueError("matrix sizes differ")
        g = self.genus
        rows = tuple(
            tuple(
                sum(self.rows[i][k] * other.rows[k][j] for k in range(g)) % 2
                for j in range(g)
            )
            for i in range(g)
        )
        return Mod2Matrix(g, rows)

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.genus:
            raise ValueError("vector length differs from matrix size")
        return tuple(
            sum(self.rows[i][k] * vector[k] for k in range(self.genus)) % 2
            for i in range(self.genus)
        )


def abelianize(auto: Automorphism) -> HomologyMatrix:
    """Integer homology matrix of an automorphism (columns = images)."""
    cols = [w.exponent_vector() for w in auto.images]
    return HomologyMatrix._trusted(auto.genus, tuple(zip(*cols)))


def mod2_class(word: Word) -> tuple[int, ...]:
    return tuple(e % 2 for e in word.exponent_vector())
