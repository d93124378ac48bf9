"""Spatial error detector (§3.3, Algorithm 1).

Every DistanceMatrix row with ``v1 ≠ v2`` (null-safe — a missing value
disagrees with any present value) marks *both* endpoint cells erroneous,
because at least one of the two records violates the spatial dependency
and we cannot yet tell which. Cells with a missing (null) value are
erroneous unconditionally, matching the host systems' null detectors.

The detector decides each cell from its own rows with one window keyed by
the key the rows carry (:func:`repro.spatial.join.tile_columns`) and the
cell, so everything after it (Algorithm 2, the §5 formats and the arg-best)
runs on the same partitioning. The rows of a cell are its DistanceMatrix
rows, its own row (``r2 = r1``, ``v2 = v1``, no weight, which makes a cell
without neighbours present too), and, for rows without a key, a weightless
copy of every violation seen from the other end, so that its ``r1`` side is
complete as well. ``v1`` is the cell's own value on every one of its rows.

The rows say which rule holds. Rows that carry their join's key come from a
symmetric join, range (the tile of ``r1``) or exact (the location), which
holds every pair in both orientations already: they get no copies, and the
window runs on the join's partitioning with no shuffle. Rows without a key
come from a kNN join, which is directed, or a hand-built DistanceMatrix:
they get the copies and are keyed by ``r1`` alone, and the window shuffles
them once. A symmetric DistanceMatrix without a key gets copies it does not
need, and the same cells are flagged.

The pipeline hands the detector the rows of
:func:`repro.core.distance_matrix.cell_rows`, whose own rows are the spatial
join's self pairs.
"""
from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.core.distance_matrix import V1, V2, W
from repro.spatial.join import ID, R1, R2, sql_ident, tile_columns

FLAGGED = "flagged"


@dataclass(frozen=True)
class DetectorResult:
    """Every cell's rows, each with the cell's flag, partitioned by cell.

    ``rows`` has the columns ``r1, r2, v1, v2, w, flagged``, after the key
    of the join (a range join's tile of ``r1``, an exact join's location)
    when the rows carry one (see :func:`repro.spatial.join.tile_columns`).
    A null ``w`` marks a row that is not one of ``r1``'s neighbours: the
    cell's own row, or a violation copied from the other end of rows
    without a key.
    """

    rows: DataFrame

    def _ids(self, flagged: bool) -> DataFrame:
        return self.rows.where(f"{R2} = {R1} AND {FLAGGED} = {str(flagged).lower()}").selectExpr(
            f"{R1} AS {ID}"
        )

    @property
    def error_ids(self) -> DataFrame:
        """The erroneous cells; single column ``rid``."""
        return self._ids(True)

    @property
    def clean_ids(self) -> DataFrame:
        """The other cells of the input; single column ``rid``."""
        return self._ids(False)


def flag_cells(rows: DataFrame) -> DetectorResult:
    """Algorithm 1 plus the null detector over every cell's rows.

    ``rows`` holds the DistanceMatrix ``(r1, r2, v1, v2, w)`` and exactly one
    own row per cell (``r2 = r1``, ``v2 = v1``, null ``w``), and may carry
    its join's key. Rows with a key come from a symmetric join and are
    flagged as they are. Rows without one may hold a pair in one
    orientation only, as a kNN DistanceMatrix does, so their violations are
    copied to their other end, and they are keyed by ``r1`` alone.
    """
    # v1 IS DISTINCT FROM v2: nulls conflict with values; two nulls agree
    # (both cells are still caught by the unconditional null check).
    violation = f"NOT ({V1} <=> {V2})"
    key = tile_columns(rows)
    if not key:
        # Each row, plus each violation seen from r2, in one scan of ``rows``:
        # a union of two selects would evaluate the spatial join under it twice.
        ends = (
            f"array(named_struct('{R1}', {R1}, '{R2}', {R2}, '{V1}', {V1}, '{V2}', {V2}, '{W}', {W}),"
            f" CASE WHEN {violation} THEN named_struct('{R1}', {R2}, '{R2}', {R1},"
            f" '{V1}', {V2}, '{V2}', {V1}, '{W}', CAST(NULL AS DOUBLE)) END)"
        )
        rows = (
            rows.selectExpr(f"explode({ends}) AS _end").where("_end IS NOT NULL").selectExpr("_end.*")
        )
    key = [*key, R1]
    flagged = (
        f"(max({violation}) OVER (PARTITION BY {', '.join(key)}) OR {V1} IS NULL) AS {FLAGGED}"
    )
    return DetectorResult(rows=rows.selectExpr(*key, R2, V1, V2, W, flagged))


def detect_errors(df: DataFrame, dm: DataFrame, *, attribute: str) -> DetectorResult:
    """Algorithm 1 over a DistanceMatrix ``dm`` (``r1 != r2``) plus the null detector.

    The own rows are read from the records ``df``; see :func:`flag_cells`.
    A ``dm`` that carries its join's key keeps it, and ``df`` then carries
    each record's key too.
    """
    key = tile_columns(dm)
    value = sql_ident(attribute)
    own = df.selectExpr(
        *key, f"{ID} AS {R1}", f"{ID} AS {R2}", f"{value} AS {V1}", f"{value} AS {V2}",
        f"CAST(NULL AS DOUBLE) AS {W}",
    )
    return flag_cells(dm.selectExpr(*key, R1, R2, V1, V2, W).unionByName(own))
