"""Spatial join substrate: distance expressions, grid tiling, self-joins.

The paper uses PostGIS as its spatial index (§3.2); this package plays the
same role on Spark DataFrames — a grid-partitioned equi-join that Catalyst
executes as an ordinary shuffle join, with distances evaluated as SQL
expressions inside Catalyst (no Python UDFs). Each self-join returns pairs
``(r1, r2, v1, v2, dist_m)``: it carries the dependent value on both sides,
so the DistanceMatrix needs no join back to the records.
"""
from repro.spatial.geo import (
    EARTH_RADIUS_M,
    M_PER_DEG_LAT,
    equirect_m,
    haversine_m,
    meters_per_degree_lon,
)
from repro.spatial.join import self_exact_join, self_knn_join, self_range_join

__all__ = [
    "EARTH_RADIUS_M",
    "M_PER_DEG_LAT",
    "equirect_m",
    "haversine_m",
    "meters_per_degree_lon",
    "self_exact_join",
    "self_knn_join",
    "self_range_join",
]
