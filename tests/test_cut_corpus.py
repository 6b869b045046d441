"""Pinned outputs of ``cut_along``: a broad seeded corpus and the census.

The digests were recorded from the ``Fraction``-coordinate cut complex, so
any change to how the complex is computed must leave every report
byte-identical.
"""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from crosscap.cutting import cut_along
from crosscap.surface import SurfaceSpec, standard_registry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# sha256 of every report of the corpus at one genus, both boundaries
CORPUS_DIGESTS = {
    4: "9ba840f3f90b2859acdfae585de0437bc539a4d4fdbeedaceb3fb385159fde0f",
    5: "3ad0ba7b1d96250b0c0a105237f18c6dd2c6c68d6dbb5065feda7313b08bc1de",
    6: "86f617e5b6a9b4c75d1d812fb437ae7695c105c800ff58437aa2ccd92fa22627",
    7: "f8122f84840a29b9c275e29cf7d513252b342ee3f672cb8a5f99828c4113015b",
    8: "16c91060bcc511fa46dfe06353efd09e04cd0e65502a40fccda6c727ec8653f6",
    9: "62dac793e7dff7097c5401e35bc2ffe2942beeb93e3093bfea259a6278d2d43c",
    10: "50f4e263ba44a9362f964be81e5fc7db94cbbe7c71d4cdaf47638eb24c95e649",
    11: "1b86ded5a175294b8182b7b28f66e2f72f41e1d3e288b9b1909ccfdc42e2eac0",
    12: "a5386fb2798d4b89251971f434d7ed1ed34cedacecf7f96e4d6e0f98b2363de9",
    13: "005dbfd6e8dca7f3abd84dc44509e70a104123e7d6bab1ed1bb53d743d578d21",
    14: "11458184538934a8c3a1b0535d29aad94ca5e5df22932193d2f36dfa6097ce95",
    15: "47f9487960d742b3c861d722eef58b095ab478a9d0ce9aea6879052fabe081e4",
    16: "89867eddbddc0d6c9db4880cb27b87ee1a5e71a27739683653493ff66e7ea579",
    17: "ad9d53febc89cd8ff28670fd9e33c0586f599a28b72a594c1ff0b8c15d7d47c4",
    18: "d8f7d4f1ed9cc39d4e1aa68050b9aaf0989f7dca3be3e3982c0940ab7c8b7493",
    19: "84551f8e03a9eef2870746840ef734964f225ae5fa169fcd60099d0ee38a3ca8",
    20: "b3fc5e0c510e7a5240d0c7f790d8c8a75d5048298aea4c1f3c4a5c1802faa469",
    21: "b7cec9de7daef11a962f5b1a334e145e9f3d378bec877ef5643e8967c1e0f6d3",
    22: "1cb1f3f05ef58da92105ad70399245a224063f0e7a620b6bb629530f962e0d28",
    23: "bbe876fa761ea36b2fe96ea07c627d1f61db88bc56f4df3675f545459a3bbcf2",
    24: "586823da9561ed859cb5362cd0ae18664af2d817d8be4fa2d4560e3153dadc2a",
}


def selections(names, rng):
    """All curves, none, each curve alone, then 25 seeded random subsets."""
    yield names
    yield []
    for name in names:
        yield [name]
    for _ in range(25):
        yield [name for name in names if rng.random() < 0.5]


@pytest.mark.parametrize("genus", sorted(CORPUS_DIGESTS))
def test_cut_reports_match_the_pinned_corpus(genus):
    digest = hashlib.sha256()
    cuts = 0
    for boundary in (0, 1):
        reg = standard_registry(SurfaceSpec(genus, boundary))
        rng = random.Random(1000 * genus + boundary)
        for selected in selections(list(reg.names()), rng):
            rep = cut_along(reg, selected)
            digest.update(rep.format_text().encode() + b"\n")
            digest.update("\n".join(rep.structured_lines()).encode() + b"\n\n")
            cuts += 1
    assert cuts == 2 * (genus + 31)
    assert digest.hexdigest() == CORPUS_DIGESTS[genus]


def test_census_answers_match_the_benchmark_digests():
    """Every census op, answered as the benchmark answers it, matches the
    digest the benchmark checks, so a census drift fails here first."""
    spec = importlib.util.spec_from_file_location(
        "_census_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    expected = json.loads((PERFBENCH / "census_digests.json").read_text("utf-8"))
    world = workloads.build_world("census")
    answers = dict(
        workloads.census_answer(world, op)
        for op in workloads.make_inputs("census", 0)
    )
    assert len(answers) == 82
    assert answers == expected
