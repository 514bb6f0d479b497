"""Neighborhood (kNN) computation via the locality algorithm of [15].

Definitions 1 and 2 of the paper:

* the **neighborhood** of a point ``p`` is the set of its ``k`` nearest
  neighboring points;
* the **locality** of ``p`` is a set of index blocks inside which the
  neighborhood of ``p`` is guaranteed to exist.

The library computes neighborhoods by first building the minimal locality
(Sankaranarayanan, Samet, Varshney; Computers & Graphics 2007) and then
scanning only the points in the locality's blocks.
"""

from repro.locality.neighborhood import Neighborhood
from repro.locality.knn import (
    Locality,
    build_locality,
    get_knn,
    neighborhood_from_blocks,
)
from repro.locality.batch import flatten_neighborhoods, get_knn_batch
from repro.locality.brute import brute_force_knn

__all__ = [
    "Neighborhood",
    "Locality",
    "build_locality",
    "get_knn",
    "get_knn_batch",
    "flatten_neighborhoods",
    "neighborhood_from_blocks",
    "brute_force_knn",
]
