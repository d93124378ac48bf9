"""Grid tiling for spatial self-joins.

Records are assigned an integer tile ``(_cx, _cy)`` whose side is at least
the search radius ``d`` (in degrees, converted at the dataset's extreme
latitude so the tile is never *smaller* than ``d`` anywhere in the extent).
Any two points within ``d`` of each other then land in the same tile or in
one of its 8 neighbors, so a range join becomes: explode one side over the
3×3 tile neighborhood, equi-join on the tile key, filter on true distance.
Catalyst runs this as a shuffle hash/sort-merge join — no cross join.

Longitude tiles wrap around the globe: there are ``N`` of them, each
360/N degrees wide, and ``_cx`` counts modulo ``N``, so the tiles on
either side of the antimeridian are neighbors like any other two.
"""
import math

from pyspark.sql import DataFrame

from repro.spatial.geo import EARTH_RADIUS_M, LAT, LON, M_PER_DEG_LAT, sql_double, sql_ident

#: Safety margin on tile size: the distance filter uses the exact metric
#: while tiles are sized by the projection, so oversize tiles slightly to
#: guarantee no in-range pair ever spans more than one tile boundary.
_TILE_PAD = 1.01

CELL_X = "_cx"
CELL_Y = "_cy"


def lon_tile_count(d_m: float, max_abs_lat_deg: float) -> int:
    """``N``, the number of longitude tiles round the globe for radius ``d_m``.

    Two points at latitudes within ±``max_abs_lat_deg`` = ±φ whose
    longitudes differ by Δλ ≤ 180° are at least ``2R·asin(cos φ·sin(Δλ/2))``
    apart on the sphere, and at least as far on the flat projection. A tile
    as wide as the Δλ that makes this ``d_m`` (padded) therefore leaves no
    in-range pair in two tiles that do not touch. Near a pole, where the
    length of a parallel overstates that distance by up to π/2, no Δλ is
    wide enough and ``N`` is 1. So it is for a ``d_m`` of half the Earth's
    circumference or more, where the half-angle is clamped at π/2.
    """
    if d_m <= 0:
        raise ValueError(f"tile radius must be positive, got {d_m}")
    s = math.sin(min(d_m * _TILE_PAD / (2 * EARTH_RADIUS_M), math.pi / 2))
    c = math.cos(math.radians(max_abs_lat_deg))
    if s >= c:
        return 1
    return math.floor(360.0 / math.degrees(2 * math.asin(s / c)))


def tile_sizes_deg(d_m: float, max_abs_lat_deg: float) -> tuple[float, float]:
    """(lat_deg, lon_deg) tile side for radius ``d_m`` meters.

    Longitude degrees shrink toward the poles, so the conversion uses the
    extent's extreme latitude — the tile is then >= ``d_m`` everywhere. The
    longitude side divides 360 (see :func:`lon_tile_count`).
    """
    lon_tiles = lon_tile_count(d_m, max_abs_lat_deg)
    return d_m * _TILE_PAD / M_PER_DEG_LAT, 360.0 / lon_tiles


def with_tiles(df: DataFrame, *, d_m: float, max_abs_lat_deg: float) -> DataFrame:
    """Add integer tile coordinates ``(_cx, _cy)`` of ``(lat, lon)`` for radius ``d_m``."""
    lat_deg, lon_deg = tile_sizes_deg(d_m, max_abs_lat_deg)
    lon_tiles = lon_tile_count(d_m, max_abs_lat_deg)
    return df.selectExpr(
        "*",
        f"CAST(pmod(floor({LON} / {sql_double(lon_deg)}), {lon_tiles}) AS BIGINT) AS {CELL_X}",
        f"CAST(floor({LAT} / {sql_double(lat_deg)}) AS BIGINT) AS {CELL_Y}",
    )


def explode_neighborhood(df: DataFrame, *, lon_tiles: int) -> DataFrame:
    """Replicate each row over its 3×3 tile neighborhood.

    The exploded side is the *probe* side of the join: probing all 9
    neighbor tiles against build-side rows keyed by their own tile finds
    every pair within one tile-length, hence every pair within ``d``.
    ``_cx`` wraps modulo ``lon_tiles``; with fewer than 3 longitude tiles
    each one is probed once, so no pair is found twice. The nine tiles are
    one ``inline`` generator over an array of ``(_cx, _cy)`` structs.
    """
    dxs = (-1, 0, 1) if lon_tiles >= 3 else range(lon_tiles)
    tiles = ", ".join(
        f"named_struct('{CELL_X}', pmod({CELL_X} + {dx}, {lon_tiles}), '{CELL_Y}', {CELL_Y} + {dy})"
        for dx in dxs
        for dy in (-1, 0, 1)
    )
    rest = [sql_ident(c) for c in df.columns if c not in (CELL_X, CELL_Y)]
    return df.selectExpr(*rest, f"inline(array({tiles}))")
