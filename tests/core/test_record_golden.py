"""Byte-identity gate for PYTHIA-RECORD.

Every app skeleton is recorded with timestamps (small working set, two
ranks, seed 0) and the sha256 of each saved trace file is compared with a
digest committed below.  The digests pin everything the recorder writes:
rule numbering and exponents of every grammar, the timing table's keys,
their order and the bits of every duration sum, the event registry and the
file layout.  A speed-up of the grammar repair loop, the timing replay or
the save path must leave all of them unchanged.

The digests do not depend on the Python version (3.10-3.12) or on
``PYTHONHASHSEED``.  Update them only together with a deliberate change
of the trace format or of the recorded output, and say so in the change.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps import list_apps
from repro.experiments.harness import mpi_record_run

GOLDEN_SHA256 = {
    "amg": "681ea3b82c0a98f2d1e2ce6c3ee616b4e44c7b76a6f3aecae3c5b6ea274f9593",
    "bt": "6725b4560a484d98e10d687a800078f165b6a999461e6be53916b6786bfd53a3",
    "cg": "49505a794bfff803df0c5d98c1c36f331c9937b5c4325958a3c6b72891402d52",
    "ep": "4cd94a4c7ef74c47946d4e6df2dab507dd4afc17000558eff18e2761b30ab724",
    "ft": "b543cf5ad7b7adabb89314db0474c95442b90b8b93b8b96a757df2cb9a383ac4",
    "is": "49b9f739d3f129d1c9bea459137212b3b6e9154e2a0fb133a91ad872b54db23b",
    "kripke": "d06f1ec3baa92840f84380a9023b3b0a8d8fa4acac02a85d57407a3a2c539bff",
    "lu": "53c3ac273e1503b3ac11f4e662ff20af08a5531fbac0737400d45a38740191fa",
    "lulesh": "36cd15852257959ae1888f083d5613bbee7232c4bcf890e448ff81ef90da1ba5",
    "mg": "5b1535323a18665bc4e47710af224dc1124fc42ea00dad0e562f00efc4bc2c33",
    "minife": "d92b2892c1b3cf1e39f97e92d30df4f400e9d9efdbeb9dc44d6f6b36590474c1",
    "quicksilver": "e06c9887fb9bb2e848c9e752330f0020abb96c2f0ffe9ea83ec133e549244adf",
    "sp": "d279783b0f7d791a2dd52cd8a5ff390e1785f5d247ff9a410c13394e8e5c0607",
}


def test_every_app_has_a_digest():
    assert sorted(GOLDEN_SHA256) == sorted(list_apps())


@pytest.mark.parametrize("app", sorted(GOLDEN_SHA256))
def test_recorded_trace_is_byte_identical(app, tmp_path):
    path = tmp_path / f"{app}.pythia"
    mpi_record_run(app, "small", str(path), ranks=2, seed=0, timestamps=True)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[app]
