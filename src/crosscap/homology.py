"""First-homology actions of mapping classes over Z.

Abelianising a free-group automorphism gives an integer matrix whose
column ``i`` is the exponent vector of the image of ``x_i``, which the
``homology`` command prints.  ``verify-theorem`` builds no matrix, so
this module loads on first use: its mod-2 stage reads bit rows
(:func:`words.mod2_class`) through :func:`twists.transvection_fault`.
At run time this module needs only ``words``.
"""

from __future__ import annotations

from crosscap.words import Record, Word

# Type checkers take any TYPE_CHECKING as true; at run time it is a plain
# False, so no run imports ``typing`` for it.
TYPE_CHECKING = False
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
