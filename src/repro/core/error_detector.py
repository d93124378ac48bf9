"""Spatial error detector (§3.3, Algorithm 1).

Every DistanceMatrix row with ``v1 ≠ v2`` (null-safe — a missing value
disagrees with any present value) marks *both* endpoint cells erroneous,
because at least one of the two records violates the spatial dependency
and we cannot yet tell which. Cells with a missing (null) value are
erroneous unconditionally, matching the host systems' null detectors.

The detector shuffles the DistanceMatrix once, by ``r1``, and decides each
cell from its own rows, so everything after it (Algorithm 2, the §5
formats and the arg-best) runs on the same partitioning. The rows of a
cell are its DistanceMatrix rows, its own row (``r2 = r1``, ``v2 = v1``,
which makes a cell without neighbours present too), and a weightless copy
of every violation seen from the other end, so the ``r1`` side of a
directed (kNN) DistanceMatrix is complete as well. ``v1`` is the cell's
own value on every one of its rows.
"""
from dataclasses import dataclass

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.distance_matrix import V1, V2, W
from repro.spatial.join import ID, R1, R2

FLAGGED = "flagged"


@dataclass(frozen=True)
class DetectorResult:
    """Every cell's rows, hash-partitioned by ``r1``, each with the cell's flag.

    ``rows`` has the columns ``r1, r2, v1, v2, w, flagged``. A null ``w``
    marks a row that is not one of ``r1``'s neighbours: the cell's own row,
    or a violation copied from the other end.
    """

    rows: DataFrame

    def _ids(self, flagged: bool) -> DataFrame:
        own = (F.col(R2) == F.col(R1)) & (F.col(FLAGGED) == F.lit(flagged))
        return self.rows.where(own).select(F.col(R1).alias(ID))

    @property
    def error_ids(self) -> DataFrame:
        """The erroneous cells; single column ``rid``."""
        return self._ids(True)

    @property
    def clean_ids(self) -> DataFrame:
        """The other cells of the input; single column ``rid``."""
        return self._ids(False)


def detect_errors(df: DataFrame, dm: DataFrame, *, attribute: str) -> DetectorResult:
    """Algorithm 1 over DistanceMatrix ``dm`` plus the null detector."""
    # v1 IS DISTINCT FROM v2: nulls conflict with values; two nulls agree
    # (both cells are still caught by the unconditional null check).
    violation = ~F.col(V1).eqNullSafe(F.col(V2))
    no_weight = F.lit(None).cast("double").alias(W)
    # Each row, plus each violation seen from r2, in one scan of ``dm``: a
    # union of two selects would evaluate the spatial join under it twice.
    ends = F.array(
        F.struct(R1, R2, V1, V2, W),
        F.when(violation, F.struct(
            F.col(R2).alias(R1), F.col(R1).alias(R2), F.col(V2).alias(V1), F.col(V1).alias(V2),
            no_weight,
        )),
    )
    pairs = (
        dm.select(F.explode(ends).alias("_end"))
        .where(F.col("_end").isNotNull())
        .select("_end.*")
    )
    own = df.select(
        F.col(ID).alias(R1), F.col(ID).alias(R2),
        F.col(attribute).alias(V1), F.col(attribute).alias(V2), no_weight,
    )
    flagged = F.max(violation).over(Window.partitionBy(R1)) | F.col(V1).isNull()
    return DetectorResult(rows=pairs.unionByName(own).withColumn(FLAGGED, flagged))
