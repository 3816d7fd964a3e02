"""Simulated MPI runtime: communicator, rank processes, file-view datatypes.

Substitutes for MPICH2/mpi4py on the simulated cluster (see DESIGN.md §2).
"""

from .comm import ANY_SOURCE, ANY_TAG, Message, RankContext, SimComm
from .file import SimFile
from .request import Request, waitall
from .datatypes import (
    block_decompose_3d,
    contiguous_view,
    dims_create,
    hindexed_view,
    subarray_view_3d,
    vector_view,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "RankContext",
    "Request",
    "SimComm",
    "SimFile",
    "waitall",
    "block_decompose_3d",
    "contiguous_view",
    "dims_create",
    "hindexed_view",
    "subarray_view_3d",
    "vector_view",
]
