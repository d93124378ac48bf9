"""DistanceMatrix construction (§3.2).

For a constraint ``C`` over attribute ``A``, the DistanceMatrix is the
materialised spatial self-join ``(R1, R2, v1, v2, D, W)``: ``R2`` is within
range ``d`` of ``R1`` (or among its k nearest), ``v1/v2`` are the two
records' values of ``A``, ``D`` the distance under ``F`` and ``W`` the
weight under ``W``. It is one self-join that carries ``A`` on both sides
(``repro.spatial.join``), plus the ``W`` column. All later Sparcle stages
are cheap scans/joins of this table, which is why the paper materialises it
once per constraint.

The join also pairs each record with itself. :func:`cell_rows` keeps those
self pairs as the cells' own rows, with no weight, and the error detector
reads them in place of a second scan of the records; a range or exact
join's rows keep the key that the join partitioned them by (the tile of
``r1``, or the location), so the stages after it run without another
shuffle. The DistanceMatrix proper is its rows with
``r1 != r2``.
"""
from pyspark.sql import DataFrame

from repro.core.constraints import (
    Constraint,
    ExactLocationConstraint,
    SpatialRangeConstraint,
)
from repro.spatial.join import (
    DIST, R1, R2, V1, V2, Extent, compute_extent, exact_pairs, knn_pairs, range_pairs, sql_double,
    tile_columns,
)

W = "w"


def cell_rows(df: DataFrame, constraint: Constraint, *, extent: Extent | None = None) -> DataFrame:
    """The DistanceMatrix plus one own row per record, from one join.

    An own row is the record's self pair: ``r1 = r2``, ``v2 = v1``, distance
    0 and a null ``w``, since the record is not its own neighbour. A range
    constraint's rows also carry ``r1``'s tile, and an exact one's the
    location (see :func:`repro.spatial.join.tile_columns`). Without an ``extent``,
    :func:`repro.spatial.join.compute_extent` checks ``df`` and makes one,
    whatever the constraint.
    """
    if not isinstance(constraint, Constraint):
        raise TypeError(f"unsupported constraint {constraint!r}")
    extent = extent or compute_extent(df)
    if isinstance(constraint, ExactLocationConstraint) or (
        # d=0 degenerates to the exact-equality constraint (§6.1).
        isinstance(constraint, SpatialRangeConstraint) and constraint.d_m == 0
    ):
        pairs = exact_pairs(df, value_col=constraint.attribute)
        w = sql_double(1.0)
    elif isinstance(constraint, SpatialRangeConstraint):
        pairs = range_pairs(
            df, d_m=constraint.d_m, value_col=constraint.attribute,
            distance=constraint.distance, extent=extent,
        )
        w = constraint.weight.expr(DIST, sql_double(constraint.d_m))
    else:
        # The paper sets d to the k-th neighbor distance of each r1 (§6).
        pairs = knn_pairs(
            df, k=constraint.k, value_col=constraint.attribute, distance=constraint.distance,
            extent=extent,
        ).selectExpr("*", f"max({DIST}) OVER (PARTITION BY {R1}) AS _d_max")
        w = constraint.weight.expr(DIST, "_d_max")
    return pairs.selectExpr(
        *tile_columns(pairs), R1, R2, V1, V2, DIST,
        f"CASE WHEN {R1} = {R2} THEN NULL ELSE {w} END AS {W}",
    )

