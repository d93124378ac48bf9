"""Spatial join substrate: distance expressions, grid tiling, self-joins.

The paper uses PostGIS as its spatial index (§3.2); this package plays the
same role on Spark DataFrames — a grid-partitioned equi-join that Catalyst
executes as an ordinary shuffle join, with distances evaluated as SQL
expressions inside Catalyst (no Python UDFs). The functions in
:mod:`repro.spatial.join` (``range_pairs``, ``knn_pairs``, and
``exact_pairs``, one window per location) return pairs ``(r1, r2, v1, v2,
dist_m)``, every record's self pair included: they carry the dependent
value on both sides, so the DistanceMatrix needs no join back to the
records.
"""
from repro.spatial.geo import (
    EARTH_RADIUS_M,
    M_PER_DEG_LAT,
    equirect_m,
    haversine_m,
    meters_per_degree_lon,
)

__all__ = [
    "EARTH_RADIUS_M",
    "M_PER_DEG_LAT",
    "equirect_m",
    "haversine_m",
    "meters_per_degree_lon",
]
