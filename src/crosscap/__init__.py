"""Exact computation in mapping class groups of non-orientable surfaces.

The package models a compact non-orientable surface of genus ``g`` (a
connected sum of ``g`` projective planes, with zero or one boundary
circles), curves on it as cycles of crossings with the crosscap sides,
placed by integer side parameters whose order is all that counts, and
the Dehn twists those curves support.  Everything downstream -- twist
actions on the fundamental group, homology matrices, cut-and-check
Euler characteristic arguments -- is derived from that one
combinatorial model, so the separate layers can be played off against
each other in tests.
"""

from crosscap.homology import HomologyMatrix, Mod2Matrix, abelianize, mod2_class
from crosscap.surface import (
    CurveRecord,
    Registry,
    SurfaceSpec,
    UnknownCurveError,
    load_registry,
    standard_registry,
    validate_registry,
    x0_names,
)
from crosscap.twists import (
    Automorphism,
    Certificate,
    TwistGenerator,
    apply_to_curve,
    check_certificate,
    derive_generators,
    equal,
    evaluate,
    standard_certificates,
    verify_key_conjugation,
)
from crosscap.words import CyclicWord, Word, boundary_word, is_conjugate

__version__ = "0.1.0"

# The cut complex is imported on first use, so that commands which never
# cut (verify-theorem among them) neither compile nor load it.
_FROM_CUTTING = ("ComplementReport", "ComponentReport", "cut_along", "intersection_number")


def __getattr__(name: str):
    if name in _FROM_CUTTING:
        from crosscap import cutting

        return getattr(cutting, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Automorphism",
    "Certificate",
    "ComplementReport",
    "ComponentReport",
    "CurveRecord",
    "CyclicWord",
    "HomologyMatrix",
    "Mod2Matrix",
    "Registry",
    "SurfaceSpec",
    "TwistGenerator",
    "UnknownCurveError",
    "Word",
    "abelianize",
    "apply_to_curve",
    "boundary_word",
    "check_certificate",
    "cut_along",
    "derive_generators",
    "equal",
    "evaluate",
    "intersection_number",
    "is_conjugate",
    "load_registry",
    "mod2_class",
    "standard_certificates",
    "standard_registry",
    "validate_registry",
    "verify_key_conjugation",
    "x0_names",
]
