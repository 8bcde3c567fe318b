"""The catalog's channel matrices, pinned bit for bit.

Each digest is the SHA-256 of a ``.matrix``'s bytes.  A refactor of how the
circuits are written must leave every bit of them as it was; a deliberate
change of the arithmetic has to update these digests and say why.  The
routed ``toffoli.qc`` and ``teleport.qc`` fold to the same bits as the
catalog's ``toffoli_super`` and ``teleport``.
"""

import hashlib
from importlib import resources

import pytest

import qarrow
from qarrow import circuits
from qarrow.textcircuit import parse_circuit, route

PINNED = {
    "toffoli_super": "8d3827a9767a754dec479ca038382460a40dc5fc83ae413aa5bb50a0637fc2fa",
    "toffoli_lin": "72573094ca50f98d6a770c0dc3aa8d43b826ee2009b0c1c7f63682b511a2e48c",
    "alice": "58ab65956840554a83eed0ec365a9536c385d80589620efb101ec906d6a99494",
    "bob": "eb8c183d92c84fd242d7ac35d05c1e873a6264e396649f13bbc2f06a2dd24307",
    "teleport": "6aaec11771f0f94406910716f2bd366d31b112401ae76a134e03e13e146ca4bc",
    "copy": "fc8d026d8878321e9e6e5b7a1d6d2640e54d4857b9b3e61ba9f4c81d518e0ff4",
    "weaken": "78d7ea9cd8ee229853ab9bd6b391b2873cefe3ad900178ae06a6dd4a0a47c64d",
}
ROUTED = {
    "toffoli.qc": PINNED["toffoli_super"],
    "teleport.qc": PINNED["teleport"],
}


def _digest(matrix) -> str:
    return hashlib.sha256(matrix.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_catalog_matrix_bits_are_pinned(name):
    assert _digest(getattr(circuits, name)().matrix) == PINNED[name]


@pytest.mark.parametrize("name", sorted(ROUTED))
def test_routed_pipeline_matrix_bits_are_pinned(name):
    text = (resources.files(qarrow) / "data" / name).read_text(encoding="utf-8")
    assert _digest(route(parse_circuit(text)).pipeline.matrix) == ROUTED[name]
