"""Spatial self-joins over ``(rid, lat, lon)`` DataFrames.

These are the "spatial database" operations the paper delegates to PostGIS
(§3.2): range self-join, kNN self-join, and the degenerate exact-location
self-join used by the non-spatial baseline. All return a pair DataFrame
``(r1, r2, v1, v2, dist_m)`` with ``r1 != r2``, where ``v1``/``v2`` are the
two records' values of ``value_col``, carried through the join as PostGIS
would project ``a.A, b.A``; range/exact output is symmetric (both
orientations of each pair), kNN output is directed (``r2`` is among
``r1``'s k nearest).
"""
import math
from dataclasses import dataclass

from pyspark.sql import DataFrame, Row

from repro.spatial import grid
from repro.spatial.geo import (
    M_PER_DEG_LAT,
    distance_expr,
    meters_per_degree_lon,
    sql_double,
    sql_ident,
)

#: The input schema every layer reads: a record id and its coordinates.
#: Every layer builds its plan from SQL text, where these and the pair
#: columns below appear as they are; a name it does not own (the
#: dependent attribute) goes through ``sql_ident``, and a float constant
#: through ``sql_double`` (both defined in ``repro.spatial.geo``).
ID = "rid"
LAT = "lat"
LON = "lon"
R1 = "r1"
R2 = "r2"
V1 = "v1"
V2 = "v2"
DIST = "dist_m"
PAIR_COLUMNS = (R1, R2, V1, V2, DIST)


@dataclass(frozen=True)
class Extent:
    """Bounding box + count of the input, driving tile sizing and kNN radii."""

    n: int
    lat_min: float
    lat_max: float
    #: Degrees of longitude the records span, the short way round: an
    #: extent across ±180° spans the gap through 180°, not through 0°.
    lon_span: float

    @property
    def ref_lat(self) -> float:
        return (self.lat_min + self.lat_max) / 2.0

    @property
    def max_abs_lat(self) -> float:
        return max(abs(self.lat_min), abs(self.lat_max))

    @property
    def width_m(self) -> float:
        return self.lon_span * meters_per_degree_lon(self.ref_lat)

    @property
    def height_m(self) -> float:
        return (self.lat_max - self.lat_min) * M_PER_DEG_LAT

    @property
    def diagonal_m(self) -> float:
        return math.hypot(self.width_m, self.height_m)

    @property
    def area_m2(self) -> float:
        return max(self.width_m, 1.0) * max(self.height_m, 1.0)


def extent_aggs() -> list[str]:
    """The aggregates :func:`extent_from_row` reads, as SQL for one ``selectExpr``.

    Longitude is spanned twice, on [−180, 180] and on [0, 360). Both spans
    cover every record; the first leaves out the gap at ±180°, the second
    the gap at 0°, so records that straddle ±180° take the second.
    """
    lon360 = f"pmod({LON}, {sql_double(360.0)})"
    return [
        "count(1) AS n",
        f"min({LAT}) AS lat_min",
        f"max({LAT}) AS lat_max",
        f"min({LON}) AS lon_min",
        f"max({LON}) AS lon_max",
        f"min({lon360}) AS lon360_min",
        f"max({lon360}) AS lon360_max",
    ]


def extent_from_row(row: Row) -> Extent:
    """The :class:`Extent` of an aggregated row; empty input gets a zero box."""
    if row["n"] == 0:
        return Extent(0, 0.0, 0.0, 0.0)
    lon_span = min(row["lon_max"] - row["lon_min"], row["lon360_max"] - row["lon360_min"])
    return Extent(row["n"], row["lat_min"], row["lat_max"], lon_span)


def compute_extent(df: DataFrame) -> Extent:
    """One aggregation pass for the dataset's bounding box and count."""
    return extent_from_row(df.selectExpr(*extent_aggs()).first())


def _pair_join(
    left: DataFrame,
    right: DataFrame,
    *,
    d_m: float,
    extent: Extent,
    value_col: str,
    distance: str,
) -> DataFrame:
    """All (left, right) pairs with distinct ids within ``d_m`` meters."""
    value = sql_ident(value_col)
    tiles = dict(d_m=d_m, max_abs_lat_deg=extent.max_abs_lat)
    build = grid.with_tiles(
        right.selectExpr(f"{ID} AS {R2}", f"{LAT} AS _lat2", f"{LON} AS _lon2", f"{value} AS {V2}"),
        lat_col="_lat2", lon_col="_lon2", **tiles,
    )
    probe = grid.explode_neighborhood(
        grid.with_tiles(
            left.selectExpr(f"{ID} AS {R1}", f"{LAT} AS _lat1", f"{LON} AS _lon1", f"{value} AS {V1}"),
            lat_col="_lat1", lon_col="_lon1", **tiles,
        ),
        lon_tiles=grid.lon_tile_count(d_m, extent.max_abs_lat),
    )
    dist = distance_expr(distance, "_lat1", "_lon1", "_lat2", "_lon2", extent.ref_lat)
    return (
        probe.join(build, on=[grid.CELL_X, grid.CELL_Y])
        .where(f"{R1} != {R2}")
        .selectExpr(R1, R2, V1, V2, f"{dist} AS {DIST}")
        .where(f"{DIST} < {sql_double(d_m)}")
    )


def self_range_join(
    df: DataFrame,
    *,
    d_m: float,
    value_col: str,
    distance: str = "equirect",
    extent: Extent | None = None,
) -> DataFrame:
    """Symmetric pairs ``(r1, r2, v1, v2, dist_m)`` with ``dist_m < d_m``, r1 != r2.

    Matches the paper's ``SpatialRange`` predicate: strict ``F(r1,r2) < d``.
    """
    extent = extent or compute_extent(df)
    # Empty input yields no pairs at any tile size; a positive one lets d_m = 0 pass.
    return _pair_join(
        df, df, d_m=d_m if extent.n else max(d_m, 1.0), extent=extent,
        value_col=value_col, distance=distance,
    )


def self_exact_join(df: DataFrame, *, value_col: str) -> DataFrame:
    """Pairs at the *same exact* coordinates — the non-spatial baseline.

    This is the equality self-join current cleaning systems run (§3.2):
    co-occurrence exists only where coordinates are duplicated.
    """
    def side(rid: str, v: str) -> DataFrame:
        return df.selectExpr(
            f"{ID} AS {rid}", f"{LAT} AS _lat", f"{LON} AS _lon", f"{sql_ident(value_col)} AS {v}"
        )

    return (
        side(R1, V1).join(side(R2, V2), on=["_lat", "_lon"])
        .where(f"{R1} != {R2}")
        .selectExpr(R1, R2, V1, V2, f"{sql_double(0.0)} AS {DIST}")
    )


def self_knn_join(
    df: DataFrame,
    *,
    k: int,
    value_col: str,
    distance: str = "equirect",
    extent: Extent | None = None,
) -> DataFrame:
    """Directed k-nearest-neighbor pairs ``(r1, r2, v1, v2, dist_m)``.

    Grid range-join at an estimated radius, then radius doubling for the
    records not yet resolved. A record is resolved once at least
    ``need = min(k, n-1)`` other records lie within the round's radius:
    every record outside it is farther, so its k nearest are among them,
    whatever the distance. With finite coordinates every distance is
    finite, so a round whose radius passes the largest one resolves every
    record. A final ``row_number`` window trims to ``need`` per ``r1``
    (ties broken by ``r2`` for determinism). Equivalent to an
    index-backed kNN self-join, expressed as DataFrame rounds. Every round,
    the last included, runs one Spark action, ``isEmpty`` on the uncached
    frontier, to decide whether another round is needed.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    extent = extent or compute_extent(df)
    spark = df.sparkSession
    if extent.n <= 1:
        vtype = df.schema[value_col].dataType.simpleString()
        return spark.createDataFrame(
            [], schema=f"{R1} long, {R2} long, {V1} {vtype}, {V2} {vtype}, {DIST} double"
        )

    # Radius such that a disk holds ~3(k+1) points under uniform density.
    density = extent.n / extent.area_m2
    radius = max(
        math.sqrt(3.0 * (k + 1) / (math.pi * density)), extent.diagonal_m / 1024, 1.0
    )
    need = min(k, extent.n - 1)
    points = df.selectExpr(ID, LAT, LON, sql_ident(value_col))
    cols = dict(extent=extent, value_col=value_col, distance=distance)
    unresolved = points
    resolved_parts: list[DataFrame] = []
    while True:
        pairs = _pair_join(unresolved, points, d_m=radius, **cols)
        done_ids = pairs.groupBy(R1).count().where(f"`count` >= {need}").select(R1)
        resolved_parts.append(pairs.join(done_ids, on=R1, how="leftsemi"))
        unresolved = unresolved.join(done_ids.selectExpr(f"{R1} AS {ID}"), on=ID, how="leftanti")
        if unresolved.isEmpty():
            break
        radius *= 2.0
    all_pairs = resolved_parts[0]
    for p in resolved_parts[1:]:
        all_pairs = all_pairs.unionByName(p)
    rank = f"row_number() OVER (PARTITION BY {R1} ORDER BY {DIST} ASC, {R2} ASC)"
    return (
        all_pairs.selectExpr(*PAIR_COLUMNS, f"{rank} AS _rank")
        .where(f"_rank <= {k}")
        .selectExpr(*PAIR_COLUMNS)
    )
