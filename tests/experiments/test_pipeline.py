"""The checkpoint sweep's image digest.

A cell hashes the datastore image's buffer in place; the digest must be
the one of the image's bytes, copied out.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments import pipeline
from repro.pfs.datastore import SparseFile
from repro.workloads.payload import pattern_bytes


@pytest.mark.parametrize("tenants", [1, 2])
def test_cell_digest_is_sha256_of_image_bytes(tenants, monkeypatch):
    images = []
    real = SparseFile.read

    def read(self, offset, length):
        out = real(self, offset, length)
        images.append(out)
        return out

    monkeypatch.setattr(SparseFile, "read", read)
    point = pipeline._pipeline_cell(
        ("uniform", "blocking", "write", 1, 0, tenants)
    )
    image = images[-1]
    assert point.datastore_sha256 == hashlib.sha256(image.tobytes()).hexdigest()
    # tenant t's rank r writes its block with salt r * 97 + t * 131 + 13
    want = np.concatenate(
        [
            pattern_bytes(pipeline.BLOCK, r * 97 + t * 131 + 13)
            for t in range(tenants)
            for r in range(pipeline.N_RANKS)
        ]
    )
    assert np.array_equal(image, want)
