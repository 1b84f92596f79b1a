"""The scenario corpus: every valid scenario's `run` and `check` bytes stay as recorded."""

import pytest

import corpus

# SHA-256 of `run --no-timestamp` stdout and of `check` stdout, with check's
# exit code, per corpus scenario; recorded in process with numpy 2.4 on
# x86-64 once the Gram matrix, and then the commutator group, were formed from
# the packet's two axis factors, with no BLAS call, and the same with
# OPENBLAS_NUM_THREADS=1 and 2
CORPUS_SHA256 = {
    "default": ("f803f98eea5beb8e96ba4f3ec34ab0e0539eb23652ad3e41c931521f49e7eaf5",
        "d4e033cfaf4bb810d0fcce83f31cf9fb094286a436dc3a10a4d0610884823ef9", 0),
    "scale-1e-12": ("84eca788fd646037753d94478f73349eedb3cb78e050634d4dfc3ff2c18c721d",
        "99598ba876faedc588aa477dfd2525ff173a827e19b3993a34899c95f1f1a031", 0),
    "scale-1e-6": ("f2da24a6f3e43ec32e64c6d691dce2ead2d498d57bd71b2ebae042eba7d0e7c0",
        "452b647c64c982dc7756d43f2e947f4d651700bcb47b1af1ea0a632a53a4653e", 0),
    "scale-1e-3-hbar": ("b9283e4f7ef94878186f0daa9432eff188e076ed01425c8e11c968709007d11e",
        "8b08c3a425a4d54751d19acdcc91c4b479db6fd9980707f06b14d2119465ef1d", 0),
    "scale-1e3": ("7e1b8e80aa2460f35794961782f349f431fb93f8c8076e7d09fba29482c18772",
        "549f970af21cadd4ee09099616b72fee84854b9424a766772590fc7eceba2e10", 0),
    "scale-1e6": ("f348fc3e6e37b0dc2382fc3ed26f979e10dcb18704991fd293e4c613bfa0d76f",
        "f84bb24767b0c95673bb2ba40ea466b2a680ccd1ebc3e828622ce2b87da1e987", 0),
    "scale-1e12": ("18cbf9b6c746401588db41d483cee16f5a32abbe1d9fb1bd6f02d8a2da1e4e84",
        "336bfbdd1ea50f850b27174947e7ed31f9cb5a52cfb4f46777a9bdae348df948", 0),
    "generic-params": ("a87831882cb0791ef3ec8ac48c89934b3053e982b4585463775cad18f0dafbb2",
        "fc3b03c669d774b325715a5b418ff3e6c0cc9b0784edd592a1f1ea1ab30d69fa", 0),
    "near-aliasing": ("ba65472a1695ff385e862c8e982e9ed0a8ee1e77d82927079b252920c0191a7f",
        "dca1c3fd0226c0f05c3e2e92d532b822fccd142f8501f488010f458f74f55d76", 0),
    "near-boundary": ("82caa7e190ca26afebb9d1f197b72097b861d6b3634005ee57559049274ea80f",
        "d4e033cfaf4bb810d0fcce83f31cf9fb094286a436dc3a10a4d0610884823ef9", 0),
    "n16": ("f0ad88943e2df671b27c5bacfce11cafc53e57822fa0d70eb31c454b67b179bb",
        "c00bdd18ec6183ca8326c115519e26033d776c0d650795bf6078fe3bd92e1658", 0),
    "n32": ("4ef6c0d9debcfa2de6f9102023303deb6497944dda39ba13256fe373381b7661",
        "d7d81e634bdbabdac0f404bc4cb241ac0a1c4311fb997db19dca3d525a90887c", 0),
    "n256": ("fa4a4f224b0bfb233383da29d1324e074b63792b2c6a2b798558e22e06e48035",
        "bb8c769b6133647c8fa32544b9f7547bb2b65298682e0947ab13d61cdd62db02", 0),
    "n512": ("ba021bf747bb4a1c22b6fc7e19116be9d72e013993604b87d234e9a0ea4cb05c",
        "eba4f563567999449ee63964394012bef00efcaf81d5fb900d1bb10262e8951b", 0),
    "subset-crossed": ("3023d378d80516043c0cb8c0a6044c28f6362606a0001278dda11194d2ecec27",
        "734a23e209b38bbfa1e50e1df8fb80b03230a43fdce4820a528d038dd22e67f4", 0),
    "symmetric-packet": ("b3df072f65bf52ec83e2df88b3bbc66ab08b59c4fdcc91bfeb217a90c1bd72ef",
        "b4595f25e53157729e395024af6478c573be3ea6177e765fa362df6f322d9557", 0),
    "only-pairs": ("7408a6867e400e7ffb9ae4547f5c2151172b207625e2795acbfb7bb73c98588f",
        "870969e354e0912e3ceeb9e036cccb6d12e8fd9de7e6aaf8818b3447264651a0", 0),
    "only-flow": ("7408a6867e400e7ffb9ae4547f5c2151172b207625e2795acbfb7bb73c98588f",
        "a4f7792581a993329f83c45cfe89344001a907022a77ddc0979bc6302d3655bc", 0),
    "only-commutators": ("7408a6867e400e7ffb9ae4547f5c2151172b207625e2795acbfb7bb73c98588f",
        "edb9561b73ea0c8c24c2f0b48390e5c28d1fbd0f9fd538e7c5651a582fa3d92a", 0),
    "only-uncertainties": ("7408a6867e400e7ffb9ae4547f5c2151172b207625e2795acbfb7bb73c98588f",
        "004dd7bbb52c2594bc785d82968046ca4585bb86c54b5c7a5a25af414cd6f34c", 0),
    "only-unitary": ("7408a6867e400e7ffb9ae4547f5c2151172b207625e2795acbfb7bb73c98588f",
        "735f992d9739a88c89204c24c3ab6846ba0f31d864eeba7df455f804114db2fa", 0),
    "no-checks": ("6d1fda643ed2994bd72b381a316ac87cf7dcb56aec7e8f09ae4ae1e3c56fb58d",
        "41b3244fe041c52167a9ca2770acd7b163943526440ad9e296dd3fc4e7b6b13b", 0),
}

SCENARIOS = corpus.scenarios()


def test_the_corpus_is_pinned_whole():
    assert sorted(SCENARIOS) == sorted(CORPUS_SHA256)


@pytest.mark.parametrize("name", sorted(CORPUS_SHA256))
def test_corpus_scenario_output_is_byte_identical(name, tmp_path):
    assert corpus.digests(name, SCENARIOS[name], tmp_path) == CORPUS_SHA256[name]
