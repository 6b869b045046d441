"""The determinant and the matrix product of integer matrices, kept as
references.

``HomologyMatrix.det`` expands along the columns that are unit vectors
and runs fraction-free elimination on the block of the other rows and
columns.  ``fraction_det`` eliminates the whole matrix over the rationals
instead; ``test_homology`` and ``test_shortcuts`` hold ``det`` to it.
``triple_loop`` is the textbook product of two matrices given as rows,
which the homology tests compare composites with.
"""

from fractions import Fraction


def fraction_det(rows):
    """Determinant by Gaussian elimination of the whole matrix over the
    rationals."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] / mat[col][col]
            for c in range(col, n):
                mat[r][c] -= factor * mat[col][c]
    assert det.denominator == 1
    return int(det)


def triple_loop(a, b):
    """The product of two matrices given as rows."""
    return tuple(
        tuple(sum(x * y for x, y in zip(row, column)) for column in zip(*b))
        for row in a
    )
