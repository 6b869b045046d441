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

from crosscap.surface import (
    CurveRecord,
    Registry,
    SurfaceSpec,
    UnknownCurveError,
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
    transvection_fault,
    verify_key_conjugation,
)
from crosscap.words import CyclicWord, Word, boundary_word, is_conjugate, mod2_class

__version__ = "0.1.0"

# A command compiles only the code it runs: the benchmark and CI run with
# no bytecode cache, so every interpreter compiles each module it imports.
# So these modules load on first use, and verify-theorem loads none of them:
# cutting (the cut complex; complement, and the names below), homology (the
# integer matrices; the homology command, and the names below), files (the
# data-file formats, once a file is found), folding (for
# Automorphism.verify_sound) and commands (the five small commands, and the
# argparse parser that prints -h and usage errors).
_FROM_CUTTING = ("ComplementReport", "ComponentReport", "cut_along", "intersection_number")
_FROM_HOMOLOGY = ("HomologyMatrix", "abelianize")


def __getattr__(name: str):
    if name in _FROM_CUTTING:
        from crosscap import cutting as module
    elif name in _FROM_HOMOLOGY:
        from crosscap import homology as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__all__ = [
    "Automorphism",
    "Certificate",
    "ComplementReport",
    "ComponentReport",
    "CurveRecord",
    "CyclicWord",
    "HomologyMatrix",
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
    "mod2_class",
    "standard_certificates",
    "standard_registry",
    "transvection_fault",
    "validate_registry",
    "verify_key_conjugation",
    "x0_names",
]
