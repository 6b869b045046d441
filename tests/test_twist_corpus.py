"""Pinned derived twists: the images of every generator and of its inverse.

The digests were recorded before ``twist_images`` learnt to skip the
crosscaps a twist does not move, so any change to how twists are derived
must leave every image word for word as it was.
"""

import hashlib

import pytest

from crosscap.surface import SurfaceSpec, standard_registry
from crosscap.twists import derive_generators

# sha256 over every derived generator at one genus, both boundaries
TWIST_DIGESTS = {
    4: "4f357a4798f28e375167f2c6c060236b5dd54433fa48288a68750ff11d7356d5",
    5: "b0d07ade7212200816da1986409622a7c0c176acdf86ffc68849408f66e3afe7",
    6: "88c8d2da5db2c333c6b382a29b83cc4747664fb36c376db797606b6533bb72a8",
    7: "114c86faf730809d20a1d9d46bca4b5cf1917a57dfd865e911257c100ba02616",
    8: "dc983fb58c62125f610f7150e582ffc044e9ecd7aa29f03c6c5ff03d714dfe50",
    9: "df0be9f24fdc858d0bd8db541cfb78c0268c9fa14965d3bbe03fb4f36cf7562d",
    10: "edcfa2833a0b9f76257104b6b35fbd6fb4d276b08529aeb8f50eb4fad71c0bf7",
    11: "7827f8f0e906672f1f5545a101673d4ae690fffb8ca43d258850a1f9e430e91c",
    12: "332288d7bb81b140004d8a933edca998e09ab9b4d4f849f8ae6252685237d744",
    13: "a334e88e0c442aaff20718ee73d48b8c9f13873cbd9a4200197ee32597ad995f",
    14: "b6a07735d05d519d71e983dae696bf8c351c4312a2e91d1827149165ede52238",
    15: "2fc4224b774bd00027d49753c7e8ae54ddc88538bf3f2a0ebc2758ee508d8046",
    16: "e9de8bdd05e94ef8f52481dbe720421f29b8d77b27b40e1b40935f37f7b2ef55",
    17: "d5085a9d1414a83a0e676bdda164a446fea8cb0e53af52f9f021b0373e07d843",
    18: "15580b2be00fe63faf7b37685a0a5320f167c52fcfbedecf21bd397f4700a306",
    19: "c1b5d5cf283ab0b3d2281828b242c5683b2b3857c4189809419f1aa4fdcb98a7",
    20: "edefa234aebfd6bf950f5cf903046ff2b1cc12a729ef981e10bd5c710442afae",
    21: "fda5599fbdadc222d0e9dc3615121744342ad065b02134bf2bd5c6df677fc56d",
    22: "922eccc835a9f5094ee0474eda123be5c66a811a837b976f6811e5a4ac65698a",
    23: "d2df9f76c19cbed79c620ee28453ea2d99ac9f36886a995cb0777aeed9fcf795",
    24: "a8db00862380204f53db5a4c954c2aa1ee348db4e972ffa10cad8714628ee91e",
    25: "3bce83fafbd51e4f17b7f34f8107a33717f074ef43f1753888f346bcfd2d8db7",
    26: "d685fc1e3c683bae5213b73a4e7ed82a3da73324e60e183c6d0c1d67aa1f86cc",
    27: "ca9ad3e20aa5948f29fb70812aed33428e78c6a8db75764a46cfa5f3f989267e",
    28: "b92b81b28ea05b07f854b2050c675209e6eb2d9e7b35f7c84e2fccd713250588",
    29: "42512eb45cca7e751f53940cda31facb0ad34f6f0dacbac1e80c71342c29f99a",
    30: "05bc2d2ae1caff7488a0218a1f51030966559ca39284cfbd3376c1c96fa6dd40",
}


@pytest.mark.parametrize("genus", sorted(TWIST_DIGESTS))
def test_derived_twists_match_the_pinned_corpus(genus):
    digest = hashlib.sha256()
    for boundary in (0, 1):
        generators = derive_generators(standard_registry(SurfaceSpec(genus, boundary)))
        for name, gen in generators.items():
            digest.update(f"{boundary} {name}\n".encode())
            for side in (gen.auto.images, gen.inverse.images):
                for word in side:
                    digest.update(str(word).encode() + b"\n")
            digest.update(b"\n")
    assert digest.hexdigest() == TWIST_DIGESTS[genus]
