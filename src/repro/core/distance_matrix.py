"""DistanceMatrix construction (§3.2).

For a constraint ``C`` over attribute ``A``, the DistanceMatrix is the
materialised spatial self-join ``(R1, R2, v1, v2, D, W)``: ``R2`` is within
range ``d`` of ``R1`` (or among its k nearest), ``v1/v2`` are the two
records' values of ``A``, ``D`` the distance under ``F`` and ``W`` the
weight under ``W``. It is one self-join that carries ``A`` on both sides
(``repro.spatial.join``), plus the ``W`` column. All later Sparcle stages
are cheap scans/joins of this table, which is why the paper materialises it
once per constraint.
"""
from pyspark.sql import DataFrame

from repro.core.constraints import (
    Constraint,
    ExactLocationConstraint,
    SpatialRangeConstraint,
)
from repro.spatial.join import (
    DIST, R1, R2, V1, V2, Extent, self_exact_join, self_knn_join, self_range_join, sql_double,
)

W = "w"

DM_COLUMNS = (R1, R2, V1, V2, DIST, W)


def build_distance_matrix(
    df: DataFrame, constraint: Constraint, *, extent: Extent | None = None
) -> DataFrame:
    """The full ``(R1, R2, v1, v2, D, W)`` DistanceMatrix for a constraint."""
    if not isinstance(constraint, Constraint):
        raise TypeError(f"unsupported constraint {constraint!r}")
    if isinstance(constraint, ExactLocationConstraint) or (
        # d=0 degenerates to the exact-equality constraint (§6.1).
        isinstance(constraint, SpatialRangeConstraint) and constraint.d_m == 0
    ):
        return self_exact_join(df, value_col=constraint.attribute).selectExpr(
            "*", f"{sql_double(1.0)} AS {W}"
        )
    if isinstance(constraint, SpatialRangeConstraint):
        pairs = self_range_join(
            df, d_m=constraint.d_m, value_col=constraint.attribute,
            distance=constraint.distance, extent=extent,
        )
        return pairs.selectExpr("*", f"{constraint.weight.expr(DIST, sql_double(constraint.d_m))} AS {W}")
    pairs = self_knn_join(
        df, k=constraint.k, value_col=constraint.attribute, distance=constraint.distance,
        extent=extent,
    )
    # The paper sets d to the k-th neighbor distance of each r1 (§6).
    return pairs.selectExpr("*", f"max({DIST}) OVER (PARTITION BY {R1}) AS _d_max").selectExpr(
        R1, R2, V1, V2, DIST, f"{constraint.weight.expr(DIST, '_d_max')} AS {W}"
    )
