"""Spatial error detector (§3.3, Algorithm 1).

One scan over the DistanceMatrix: every row with ``v1 ≠ v2`` (null-safe —
a missing value disagrees with any present value) marks *both* endpoint
cells erroneous, because at least one of the two records violates the
spatial dependency and we cannot yet tell which. Cells with a missing
(null) value are erroneous unconditionally, matching the host systems'
null detectors.
"""
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.distance_matrix import V1, V2
from repro.spatial.join import R1, R2


@dataclass(frozen=True)
class DetectorResult:
    """Two disjoint id sets partitioning the input records' target cells."""

    clean_ids: DataFrame  # single column: id_col
    error_ids: DataFrame  # single column: id_col


def detect_errors(
    df: DataFrame,
    dm: DataFrame,
    *,
    attribute: str,
    id_col: str = "rid",
) -> DetectorResult:
    """Algorithm 1 over DistanceMatrix ``dm`` plus the null detector."""
    violations = dm.where(
        # v1 IS DISTINCT FROM v2: nulls conflict with values; two nulls agree
        # (both cells are still caught by the unconditional null check).
        ~F.col(V1).eqNullSafe(F.col(V2))
    )
    nulls = df.where(F.col(attribute).isNull()).select(id_col)
    error_ids = (
        violations.select(F.col(R1).alias(id_col))
        .unionByName(violations.select(F.col(R2).alias(id_col)))
        .unionByName(nulls)
        .distinct()
    )
    clean_ids = df.select(id_col).join(error_ids, on=id_col, how="leftanti")
    return DetectorResult(clean_ids=clean_ids, error_ids=error_ids)
