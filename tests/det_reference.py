"""The determinant by Gaussian elimination, kept as a reference.

``HomologyMatrix.det`` expands along the columns that are unit vectors
and runs fraction-free elimination on the block of the other rows and
columns.  This eliminates the whole matrix over the rationals instead;
``test_homology`` and ``test_shortcuts`` hold ``det`` to it.
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
