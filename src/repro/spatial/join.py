"""Spatial self-joins over ``(rid, lat, lon)`` DataFrames.

These are the "spatial database" operations the paper delegates to PostGIS
(§3.2): range self-join, kNN self-join, and the degenerate exact-location
self-join used by the non-spatial baseline. Each returns a pair DataFrame
``(r1, r2, v1, v2, dist_m)``, where ``v1``/``v2`` are the two records'
values of ``value_col``, carried through the join as PostGIS would project
``a.A, b.A``; range/exact output is symmetric (both orientations of each
pair), kNN output is directed (``r2`` is among ``r1``'s k nearest).

Each join also returns every record's self pair (``r1 = r2``, ``v2 =
v1``, distance 0), which the Sparcle core reads as the cell's own row; a
record's neighbours are its pairs with ``r1 != r2``. The two symmetric
joins carry their key as ``(_cx, _cy)`` and are hash-partitioned by it:
range pairs ``r1``'s own tile, exact pairs their location. A window or
group-by keyed by the key and then by ``r1`` (see :func:`tile_columns`)
runs on the join's partitioning, with no shuffle. kNN pairs carry no key.
"""
import functools
import math
from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.spatial import grid
from repro.spatial.geo import (
    ID,
    LAT,
    LON,
    M_PER_DEG_LAT,
    distance_expr,
    meters_per_degree_lon,
    sql_double,
    sql_ident,
)

#: The pair columns every self-join returns (the record schema is in ``repro.spatial.geo``).
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
        """Width × height, each side floored at ``diagonal_m / √n`` (1 m at least),
        so records on one parallel count as a strip as wide as their spacing."""
        side = max(self.diagonal_m / math.sqrt(max(self.n, 1)), 1.0)
        return max(self.width_m, side) * max(self.height_m, side)


def compute_extent(df: DataFrame) -> Extent:
    """Check the record contract; return the input's :class:`Extent`, in one Spark job.

    ``df`` has the columns ``rid``, ``lat``, ``lon`` (read from the schema,
    with no Spark job), unique non-null ids and finite in-range coordinates,
    else ``ValueError`` names the failed check: ``missing column``, ``null
    id``, ``duplicate id`` or ``bad coordinates``. (A record the grid cannot
    place drops out of a range join and never resolves in a kNN join.)
    Longitude is spanned on [−180, 180] and on [0, 360); the narrower span
    leaves out the gap the records do not straddle. Empty input gets a zero box.

    The aggregation runs on one partition of ``df``, so its plan has no
    exchange and ``count(DISTINCT rid)`` adds no job. One task scans the
    whole input, which is slower than a parallel scan only on inputs far
    larger than the tables cleaned here (DESIGN.md, "Input contract").
    """
    for column in (ID, LAT, LON):
        if column not in df.columns:
            raise ValueError(f"missing column: the input has no {column!r}")
    lon360 = f"pmod({LON}, {sql_double(360.0)})"
    bad = (
        f"{LAT} IS NULL OR {LON} IS NULL OR isnan({LAT}) OR isnan({LON})"
        f" OR abs({LAT}) > 90 OR abs({LON}) > 180"
    )
    row = df.coalesce(1).selectExpr(
        "count(1) AS n",
        f"min({LAT}) AS lat_min",
        f"max({LAT}) AS lat_max",
        f"min({LON}) AS lon_min",
        f"max({LON}) AS lon_max",
        f"min({lon360}) AS lon360_min",
        f"max({lon360}) AS lon360_max",
        f"count(CASE WHEN {ID} IS NULL THEN 1 END) AS null_ids",
        f"count(DISTINCT {ID}) AS distinct_ids",
        f"count(CASE WHEN {bad} THEN 1 END) AS bad_coords",
    ).first()
    if row["null_ids"]:
        raise ValueError(f"null id: {row['null_ids']} record(s) have a null {ID!r}")
    if row["distinct_ids"] != row["n"]:
        raise ValueError(
            f"duplicate id: {row['n'] - row['distinct_ids']} record(s) repeat an {ID!r}"
        )
    if row["bad_coords"]:
        raise ValueError(
            f"bad coordinates: {row['bad_coords']} record(s) have a null, NaN or "
            f"out-of-range {LAT!r}/{LON!r}"
        )
    if row["n"] == 0:
        return Extent(0, 0.0, 0.0, 0.0)
    lon_span = min(row["lon_max"] - row["lon_min"], row["lon360_max"] - row["lon360_min"])
    return Extent(row["n"], row["lat_min"], row["lat_max"], lon_span)


def tile_columns(df: DataFrame) -> list[str]:
    """The key columns ``(_cx, _cy)`` of a symmetric join that ``df`` carries, if any.

    A frame made from :func:`range_pairs` keeps ``r1``'s tile, and one made
    from :func:`exact_pairs` its location; each stays hash-partitioned by
    it. A window or group-by keyed by these columns and then by the cell
    runs on that partitioning; a frame without them is keyed by the cell
    alone. Only a symmetric join's rows carry them, so they also tell that
    a frame holds each pair in both orientations.
    """
    return [c for c in (grid.CELL_X, grid.CELL_Y) if c in df.columns]


def _pair_join(
    left: DataFrame,
    right: DataFrame,
    *,
    d_m: float,
    extent: Extent,
    value_col: str,
    distance: str,
) -> DataFrame:
    """All (left, right) pairs within ``d_m`` meters, self pairs (distance 0) kept.

    ``right`` is exploded over the 3×3 tile neighbourhood and ``left`` stays
    in its own tile, which the output carries as ``(_cx, _cy)``: the join
    hash-partitions its output by the tile of ``r1``, the ``left`` record.
    """
    value = sql_ident(value_col)
    tiles = dict(d_m=d_m, max_abs_lat_deg=extent.max_abs_lat)
    left_tiled = grid.with_tiles(left, **tiles)
    # Each side is tiled on its own (lat, lon) before its columns are named
    # apart; a self-join tiles its one input once.
    right_tiled = left_tiled if right is left else grid.with_tiles(right, **tiles)
    cells = (grid.CELL_X, grid.CELL_Y)
    own = left_tiled.selectExpr(
        f"{ID} AS {R1}", f"{LAT} AS _lat1", f"{LON} AS _lon1", f"{value} AS {V1}", *cells
    )
    around = grid.explode_neighborhood(
        right_tiled.selectExpr(
            f"{ID} AS {R2}", f"{LAT} AS _lat2", f"{LON} AS _lon2", f"{value} AS {V2}", *cells
        ),
        lon_tiles=grid.lon_tile_count(d_m, extent.max_abs_lat),
    )
    dist = distance_expr(distance, "_lat1", "_lon1", "_lat2", "_lon2", extent.ref_lat)
    return (
        own.join(around, on=list(cells))
        .selectExpr(R1, R2, V1, V2, f"{dist} AS {DIST}", *cells)
        .where(f"{DIST} < {sql_double(d_m)}")
    )


def range_pairs(
    df: DataFrame,
    *,
    d_m: float,
    value_col: str,
    distance: str = "equirect",
    extent: Extent | None = None,
) -> DataFrame:
    """Symmetric pairs ``(r1, r2, v1, v2, dist_m, _cx, _cy)`` with ``dist_m < d_m``,
    self pairs included, hash-partitioned by ``r1``'s tile ``(_cx, _cy)``.

    Matches the paper's ``SpatialRange`` predicate: strict ``F(r1,r2) < d``.
    Without an ``extent``, :func:`compute_extent` checks ``df`` and makes one.
    """
    extent = extent or compute_extent(df)
    # Empty input yields no pairs at any tile size; a positive one lets d_m = 0 pass.
    return _pair_join(
        df, df, d_m=d_m if extent.n else max(d_m, 1.0), extent=extent,
        value_col=value_col, distance=distance,
    )


def exact_pairs(df: DataFrame, *, value_col: str) -> DataFrame:
    """Pairs ``(r1, r2, v1, v2, dist_m, _cx, _cy)`` at the *same exact* coordinates,
    self pairs included, hash-partitioned by the location ``(_cx, _cy)``:
    the non-spatial baseline.

    This is the equality self-join current cleaning systems run (§3.2):
    co-occurrence exists only where coordinates are duplicated. It is one
    window per location, not a join: each record collects its location's
    ``(rid, value)`` and emits a pair with each, itself included. The
    location is the key ``(_cx, _cy)`` = (``lon``, ``lat``) as text, with
    −0.0 folded into 0.0 as the equality join folds it. A double key would
    be normalised again by every later group-by, which would then shuffle
    the window's output a second time. It takes no extent and checks
    nothing; :func:`repro.core.distance_matrix.cell_rows` checks the records
    first.
    """
    key = (grid.CELL_X, grid.CELL_Y)
    near = f"collect_list(named_struct('{R2}', {R1}, '{V2}', {V1}))"
    return (
        df.selectExpr(
            f"{ID} AS {R1}", f"{sql_ident(value_col)} AS {V1}",
            f"CAST({LON} + {sql_double(0.0)} AS STRING) AS {grid.CELL_X}",
            f"CAST({LAT} + {sql_double(0.0)} AS STRING) AS {grid.CELL_Y}",
        )
        .selectExpr(R1, V1, *key, f"{near} OVER (PARTITION BY {', '.join(key)}) AS _near")
        .selectExpr(R1, V1, *key, "inline(_near)")
        .selectExpr(R1, R2, V1, V2, f"{sql_double(0.0)} AS {DIST}", *key)
    )


def knn_pairs(
    df: DataFrame,
    *,
    k: int,
    value_col: str,
    distance: str = "equirect",
    extent: Extent | None = None,
) -> DataFrame:
    """Directed k-nearest-neighbor pairs ``(r1, r2, v1, v2, dist_m)``, self pairs included.

    Grid range-join at an estimated radius, then radius doubling for the
    records not yet resolved. A record is resolved once at least
    ``need = min(k, n-1)`` other records lie within the round's radius:
    every record outside it is farther, so its k nearest are among them,
    whatever the distance. With finite coordinates every distance is
    finite, so a round whose radius passes the largest one resolves every
    record. A final ``row_number`` window keeps each ``r1``'s self pair
    and its ``need`` nearest others (ties broken by ``r2`` for
    determinism). Equivalent to an index-backed kNN self-join, expressed
    as DataFrame rounds. A round explodes only its frontier over the tile
    neighbourhood and keeps each frontier record's self pair, so one
    ``count`` window over ``r1`` marks the resolved records, and the
    unresolved self pairs (a record with no neighbour has one too) pick
    the next frontier: a round's plan is the last one's plus a fixed step.
    Every round, the last included, runs ``isEmpty`` on the uncached
    frontier, which re-runs the earlier rounds' joins: linear work per
    round, quadratic over the call. With at most one record there is no
    neighbour to find, and no round: each record has its self pair alone.
    Without an ``extent``, :func:`compute_extent` checks ``df`` and makes one.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    extent = extent or compute_extent(df)
    value = sql_ident(value_col)
    if extent.n <= 1:
        return df.selectExpr(
            f"{ID} AS {R1}", f"{ID} AS {R2}", f"{value} AS {V1}", f"{value} AS {V2}",
            f"{sql_double(0.0)} AS {DIST}",
        )

    # Radius such that a disk holds ~3(k+1) points under uniform density.
    density = extent.n / extent.area_m2
    radius = max(
        math.sqrt(3.0 * (k + 1) / (math.pi * density)), extent.diagonal_m / 1024, 1.0
    )
    need = min(k, extent.n - 1)
    points = df.selectExpr(ID, LAT, LON, value)
    cols = dict(extent=extent, value_col=value_col, distance=distance)
    frontier = points
    rounds: list[DataFrame] = []
    while True:
        # The exploded side is the frontier, so the join names it r2.
        pairs = (
            _pair_join(points, frontier, d_m=radius, **cols)
            .selectExpr(f"{R2} AS {R1}", f"{R1} AS {R2}", f"{V2} AS {V1}", f"{V1} AS {V2}", DIST)
            .selectExpr("*", f"count(1) OVER (PARTITION BY {R1}) > {need} AS _done")
        )
        rounds.append(pairs.where("_done"))
        frontier = points.join(
            pairs.where(f"NOT _done AND {R1} = {R2}").selectExpr(f"{R1} AS {ID}"),
            on=ID, how="leftsemi",
        )
        if frontier.isEmpty():
            break
        radius *= 2.0
    # The self pair ranks first, even among other records at distance 0.
    rank = f"row_number() OVER (PARTITION BY {R1} ORDER BY {R1} != {R2}, {DIST}, {R2})"
    return (
        functools.reduce(DataFrame.unionByName, rounds)
        .selectExpr(*PAIR_COLUMNS, f"{rank} AS _rank")
        .where(f"_rank <= {k + 1}")
        .selectExpr(*PAIR_COLUMNS)
    )
