"""The scenario corpus: every valid scenario's `run` and `check` bytes stay as recorded."""

import pytest

import corpus

# SHA-256 of `run --no-timestamp` stdout and of `check` stdout, with check's
# exit code, per corpus scenario; recorded in process with numpy 2.4 on
# x86-64, from the tree before the power-of-two grid work and the 4 x 4
# generator matrices, which must move none of them
CORPUS_SHA256 = {
    "default": ("734164fb87e0ebb84d1bbd53d4cbbdf090abad14f846ad38f3ad5ff955e7907f",
        "17d282a0af9bb9c5a7aaa6cc71310ae48531273344350435f24e4c489b276c26", 0),
    "scale-1e-12": ("15e00ea3d9c740c7aec2be57f1bf543c3bb0342ee8c0b55d2aa5abc7d15b13fb",
        "791a94724c93a072f7f87ad472747b184a5873c3afb3c428e10a48d211255006", 0),
    "scale-1e-6": ("d3405bb9a713f5aec9699ec96eb86c72b104d5adccfa13354a8ddb2705abfa75",
        "05d87f5664810c1b7caaf33ebd582817c5d28ecfcc9b7e28ff9dd28a582ca791", 0),
    "scale-1e-3-hbar": ("dcfd917040657bd7393e4a9169a956a1b9d9b412586024b4fba970f4a26419f9",
        "fbbb3b1ece34d6d5c572839c8ab6c0c3335275323e86ca7fb881b9f374d95d47", 0),
    "scale-1e3": ("fd74d4f3bb5aab9a7763652617aa33e924132a0d99a490c8c6c4ac151b33ed4c",
        "c5966bf36c66933453877ed770ab74baa082fb82110dba98b3bee6130cdab847", 0),
    "scale-1e6": ("c21acef84f6ed40ce31ad418d5ad0b39633c343880d065cefe28ca4684de240e",
        "803c22d9e7d4ac3ea88d7bd687bb2236f8b0d104c7e336a16e9534352d60cad2", 0),
    "scale-1e12": ("d5614519be601a8dc78bf797f02590ca99a4d45da1ae332ea80e64822fbb9b78",
        "81ad550bafb668680c699a481a6ddc4f9cf10856a8ef6dd1c2b7832d1077fa24", 0),
    "generic-params": ("e6614a8634d6be87ebd9ab26d4dc2316de932ba07672e6f7d480be27135fca90",
        "4ceb26e9048cc49c0e62ffe2d59456accaea7de6adc2743fea3a0fdcfeaefa88", 0),
    "near-aliasing": ("b2f418aa0ae91eb85fcc0ae9904e2b081f87d33d58c2c35188fd8bf8c0335c11",
        "c5e9e084eda7ccbf02dd8d6e50773f078a5acd768136b4b4bfc2da7528ae274d", 0),
    "near-boundary": ("b332b9cf254f286280f0af9f1b3bb4f09cd68cbcab5ea8639d8f62a5f9704888",
        "17d282a0af9bb9c5a7aaa6cc71310ae48531273344350435f24e4c489b276c26", 0),
    "n16": ("60f934e56851e08fd7981095c7c1dc4f1262a3b064f8d48e3a853c87bc83a6a2",
        "c00bdd18ec6183ca8326c115519e26033d776c0d650795bf6078fe3bd92e1658", 0),
    "n32": ("19cfe4c86f55fb9c831b0ef92bd637dc52ee0dcf37d8a0105c29f7ddaf90254f",
        "d7d81e634bdbabdac0f404bc4cb241ac0a1c4311fb997db19dca3d525a90887c", 0),
    "n256": ("886bfcb26ae240344ece42bd5e76e9e78f140e25137342d2dd38f55c84e04fb2",
        "ad6cd8c29aeca24c51bcf7e38ad59f0ec72993024ada5881964b17d5fc0b869b", 0),
    "n512": ("f7accaf722cdb28af8fabf4e4083a22cc06d68f2a513dd68be00b92fb50e5af7",
        "eba4f563567999449ee63964394012bef00efcaf81d5fb900d1bb10262e8951b", 0),
    "subset-crossed": ("576812af2291709d284161e6daab762e68550570466867f6ab27f384d7d941df",
        "6ffe1575537515acb569a3600ff243cfe6f1d019c97ffba1add18860d835a56b", 0),
    "symmetric-packet": ("e9fbac85163013c4d0629366c18a5f31d9a66e63358e1daeed240e48fc5ddfce",
        "b81d4a20bbe32f25c3cee94817bc4973d82222dee25bd1b283cbb13a8dfd9f1b", 0),
    "only-pairs": ("a8abc5b63616479e1ac62e54d659da603b14a2b6f366a6203d2b1b70ff100d81",
        "870969e354e0912e3ceeb9e036cccb6d12e8fd9de7e6aaf8818b3447264651a0", 0),
    "only-flow": ("a8abc5b63616479e1ac62e54d659da603b14a2b6f366a6203d2b1b70ff100d81",
        "a4f7792581a993329f83c45cfe89344001a907022a77ddc0979bc6302d3655bc", 0),
    "only-commutators": ("a8abc5b63616479e1ac62e54d659da603b14a2b6f366a6203d2b1b70ff100d81",
        "b64ce2ef6ed9b1a179551218b08b3e5987a73f71cb525a476a2b9b3642bb6f43", 0),
    "only-uncertainties": ("a8abc5b63616479e1ac62e54d659da603b14a2b6f366a6203d2b1b70ff100d81",
        "b9b34025442f1442caea8477302526ca89186cfe32535f2f730eab99fb338a4b", 0),
    "only-unitary": ("a8abc5b63616479e1ac62e54d659da603b14a2b6f366a6203d2b1b70ff100d81",
        "735f992d9739a88c89204c24c3ab6846ba0f31d864eeba7df455f804114db2fa", 0),
    "no-checks": ("4164f2aff5d2811a30ee0bf884a6df19f6f6e87648b883517d035ede1f5b866b",
        "41b3244fe041c52167a9ca2770acd7b163943526440ad9e296dd3fc4e7b6b13b", 0),
}

SCENARIOS = corpus.scenarios()


def test_the_corpus_is_pinned_whole():
    assert sorted(SCENARIOS) == sorted(CORPUS_SHA256)


@pytest.mark.parametrize("name", sorted(CORPUS_SHA256))
def test_corpus_scenario_output_is_byte_identical(name, tmp_path):
    assert corpus.digests(name, SCENARIOS[name], tmp_path) == CORPUS_SHA256[name]
