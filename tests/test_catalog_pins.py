"""The catalog's channel matrices, pinned bit for bit.

Each digest is the SHA-256 of a ``.matrix``'s bytes.  A refactor of how the
circuits are written must leave every bit of them as it was; a deliberate
change of the arithmetic has to update these digests and say why.  The
routed ``toffoli.qc`` and ``teleport.qc`` fold to the same bits as the
catalog's ``toffoli_super`` and ``teleport``.  The routed ``apply`` outputs
of GHZ-6, GHZ-8 and a random 6-wire circuit are pinned too, so that a
change to how ``superop.contract`` runs its products keeps their bits.
"""

import hashlib
from importlib import resources

import pytest

import qarrow
from qarrow import circuits
from qarrow.textcircuit import initial_density, parse_circuit, route

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


def _ghz(k: int) -> str:
    wires = [f"w{i}" for i in range(k)]
    return "\n".join([f"wires {' '.join(wires)}", "gate H w0"]
                     + [f"cgate X w{i} w{i + 1}" for i in range(k - 1)]) + "\n"


# bench/inputs.random_circuit(np.random.default_rng(1), 6, 18): 2 measures, 1 discard
_RANDOM6 = """wires w0 w1 w2 w3 w4 w5
init w0 FmT
init w1 w2 epr
init w3 FmT
init w4 FmT
init w5 T
measure w2
cgate H w0 w5
cgate APHASE w1 w2
gate H w2
gate X w2
gate PHASE w1
cgate H w2 w1
discard w5
cgate X w4 w2
gate X w4
cgate X w0 w2
cgate X w2 w3
gate Z w2
cgate X w0 w2
measure w2
gate X w4
cgate Z w2 w4
gate PHASE w4
"""
APPLIED = {
    "ghz6": (_ghz(6), "0025881b53e72df5fd63fab7da64b1dced5a3a8b2f0de6eeeec65e30188f5536"),
    "ghz8": (_ghz(8), "bc6d28764e1528a87b1e2eb7e7572fe90f961b4060ecbfc8e633f7d7a56c9df4"),
    "random6": (_RANDOM6, "e5b37e38acc646540ef9477fa54cf25aa460391b22c57003a315c8275991349d"),
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


@pytest.mark.parametrize("name", sorted(APPLIED))
def test_routed_apply_bits_are_pinned(name):
    text, digest = APPLIED[name]
    ir = parse_circuit(text)
    assert _digest(route(ir).apply(initial_density(ir)).matrix) == digest
