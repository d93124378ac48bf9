"""Geodesic distance as Spark Column expressions.

Two distance functions are provided, matching the paper's distance function
``F`` (§3.1, Euclidean; road-network distance is out of scope — noted in
DESIGN.md):

- :func:`haversine_m` — great-circle distance in meters; exact on the
  sphere, used when city extents are large or correctness tests demand it.
- :func:`equirect_m` — equirectangular (flat-earth) approximation around a
  reference latitude; within a city-sized extent it differs from haversine
  by well under 0.1% and is much cheaper. This is the default ``F``.

Both are pure column expressions so they run inside Catalyst, never in
Python.
"""
import math

from pyspark.sql import Column
from pyspark.sql import functions as F

#: Mean Earth radius (IUGG), meters.
EARTH_RADIUS_M = 6_371_008.8

#: Meters per degree of latitude (constant on the sphere).
M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0


def meters_per_degree_lon(ref_lat_deg: float) -> float:
    """Meters spanned by one degree of longitude at ``ref_lat_deg``."""
    return M_PER_DEG_LAT * math.cos(math.radians(ref_lat_deg))


def delta_lon(lon1: Column, lon2: Column) -> Column:
    """``lon2 − lon1`` folded into [−180, 180], the short way round the globe.

    A pair on either side of the antimeridian (179.999 and −179.999) is
    0.002° apart, not 359.998°; a difference already in range is returned
    unchanged, bit for bit.
    """
    d = lon2 - lon1
    return F.when(d > 180, d - 360).when(d < -180, d + 360).otherwise(d)


def haversine_m(lat1: Column, lon1: Column, lat2: Column, lon2: Column) -> Column:
    """Great-circle distance in meters between two (lat, lon) columns."""
    rlat1, rlat2 = F.radians(lat1), F.radians(lat2)
    dlat = F.radians(lat2 - lat1)
    dlon = F.radians(delta_lon(lon1, lon2))
    a = (
        F.sin(dlat / 2) ** 2
        + F.cos(rlat1) * F.cos(rlat2) * F.sin(dlon / 2) ** 2
    )
    # asin(sqrt(a)) is stable for the small angles seen at city scale.
    return 2 * EARTH_RADIUS_M * F.asin(F.sqrt(a))


def equirect_m(
    lat1: Column, lon1: Column, lat2: Column, lon2: Column, ref_lat_deg: float
) -> Column:
    """Equirectangular-projection distance in meters around ``ref_lat_deg``."""
    m_lon = meters_per_degree_lon(ref_lat_deg)
    dx = delta_lon(lon1, lon2) * F.lit(m_lon)
    dy = (lat2 - lat1) * F.lit(M_PER_DEG_LAT)
    return F.sqrt(dx * dx + dy * dy)


def distance_expr(
    kind: str, lat1: Column, lon1: Column, lat2: Column, lon2: Column, ref_lat_deg: float
) -> Column:
    """Dispatch on the constraint's distance-function name ``F``."""
    if kind == "haversine":
        return haversine_m(lat1, lon1, lat2, lon2)
    if kind == "equirect":
        return equirect_m(lat1, lon1, lat2, lon2, ref_lat_deg)
    raise ValueError(f"unknown distance function {kind!r} (use 'haversine' or 'equirect')")
