"""Spatial candidate generator (§4, Algorithm 2).

Three phases per erroneous cell:

1. **Initial candidates** (§4.1): the values of all spatial neighbors,
   weighted by the summed DistanceMatrix weights (nearby co-occurrence
   instead of exact co-occurrence), plus the cell's own value at the
   default minimal weight 0.01 when no neighbor shares it.
2. **Probability estimation** (§4.2): spatially-aware Naive Bayes —
   ``Prob(C = v) = |Spatial(v,R)|/|D| × Π_{A'} Count((v,R.A'),D)/Count(v,D)``
   with the record-identifier factor following the minimality principle
   (1 for the cell's original value, 0.1 otherwise). The non-spatial
   attributes A′ are not computed here: the paper's comparison mutes
   non-spatial signals, so the product keeps the record-identifier factor
   alone.
3. **Labeling and cutoffs** (§4.3): normalise per cell, drop candidates
   below ``MinProb``, and label a cell clean when a single candidate
   remains or the top one exceeds ``MaxProb``.

Everything is DataFrame algebra on the detector's rows, which are
partitioned by cell: phase 1 is one group-by of each flagged cell's
neighbour values together with its own value, phase 2 a join against the
broadcast value-frequency table, and phase 3 windows over the cell. Each
is keyed by the join's key the rows carry, if any (a range DistanceMatrix's
tile or an exact one's location; see
:func:`repro.spatial.join.tile_columns`), and then the cell, so none of
them moves a row to another partition. The result is one ``kept`` frame,
which the §5 formatters score and ``hostsys.corrector.argbest`` ranks on
the same partitioning. The labels and the candidates left for the host
corrector are views of it — no per-row Python, no anti-join.
"""
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.distance_matrix import V1, V2, W
from repro.core.error_detector import FLAGGED, DetectorResult
from repro.spatial.join import ID, R1, R2, sql_double, sql_ident, tile_columns

VALUE = "value"
WEIGHT = "weight"  # phase-1 sum of weights (|Spatial(v, R)|, or 0.01 default)
SPATIAL_WEIGHT = "spatial_weight"  # neighbor-only part (0 if own-value-only)
TOTAL_WEIGHT = "total_weight"  # the cell's summed spatial_weight, before MinProb
PROB = "prob"
PROB_NORM = "prob_norm"
LABELED = "labeled"  # the cell is resolved in phase 3; its label is its top candidate
#: The candidate columns of a cell, as the formatters and the views read them.
CANDIDATE_COLUMNS = (ID, VALUE, WEIGHT, SPATIAL_WEIGHT, TOTAL_WEIGHT, PROB, PROB_NORM)

#: Default minimal weight for the cell's own value when no neighbor shares
#: it (§4.1), and the minimality-principle pseudo-count (§4.2).
DEFAULT_OWN_WEIGHT = 0.01
MINIMALITY_PSEUDO_COUNT = 0.1


@dataclass(frozen=True)
class CandidateResult:
    """Output of Algorithm 2: one frame, ``kept``, and two views of it.

    ``kept`` holds every candidate that survives the MinProb cutoff, with
    the :data:`CANDIDATE_COLUMNS`, the cell's own value ``v1`` and the
    cell's ``labeled`` flag: one candidate left, or the top one (by
    prob_norm, then value) above MaxProb. It stays partitioned by cell, and
    keeps the key of the detector's rows, if they carry one.
    """

    kept: DataFrame

    @property
    def candidates(self) -> DataFrame:
        """Surviving candidates of the cells that are *still* erroneous."""
        return self.kept.where(f"NOT {LABELED}").selectExpr(*CANDIDATE_COLUMNS)

    @property
    def labels(self) -> DataFrame:
        """Cells confidently resolved in phase 3; each label is a final repair."""
        rank = f"row_number() OVER (PARTITION BY {ID} ORDER BY {PROB_NORM} DESC, {VALUE} ASC)"
        top = self.kept.where(LABELED).selectExpr(ID, VALUE, f"{rank} AS _rank")
        return top.where("_rank = 1").selectExpr(ID, f"{VALUE} AS label")


def value_frequency(df: DataFrame, attribute: str) -> DataFrame:
    """``Count(v, D)`` per non-null value — Figure 3b's statistics table.

    Like the input contract's aggregate, it is counted on one partition of
    ``df``: the aggregate then needs no exchange, and the broadcast that
    phase 2 makes of the table is its one Spark job.
    """
    a = sql_ident(attribute)
    return df.coalesce(1).where(f"{a} IS NOT NULL").groupBy(F.expr(f"{a} AS {VALUE}")).agg(
        F.expr("count(1) AS cnt")
    )


def generate_candidates(
    df: DataFrame,
    detected: DetectorResult,
    *,
    attribute: str,
    min_prob: float = 0.05,
    max_prob: float = 0.95,
    freq: DataFrame | None = None,
    total: int | None = None,
) -> CandidateResult:
    """Run all three phases over the cells ``detected`` flags; see module docstring.

    ``freq``/``total`` default to statistics of ``df`` and are overridable
    so the paper's worked example (Figure 3b: |D| = 1000) is testable
    verbatim.
    """
    freq = freq if freq is not None else value_frequency(df, attribute)
    total = total if total is not None else df.count()

    # ---- Phase 1: weighted nearby co-occurrence --------------------------
    # One group-by over each flagged cell's non-null neighbor values and its
    # weightless own value: a value no neighbor shares sums to null, so it
    # takes the default.
    own = f"{R2} = {R1}"
    tile = tile_columns(detected.rows)
    cands = (
        detected.rows.where(f"{FLAGGED} AND {V2} IS NOT NULL AND ({W} IS NOT NULL OR {own})")
        .selectExpr(*tile, f"{R1} AS {ID}", V1, f"{V2} AS {VALUE}", f"{W} AS _w", f"{own} AS _own")
        .groupBy(*tile, ID, V1, VALUE)
        .agg(
            F.expr(f"coalesce(sum(_w), {sql_double(DEFAULT_OWN_WEIGHT)}) AS {WEIGHT}"),
            F.expr(f"coalesce(sum(_w), {sql_double(0.0)}) AS {SPATIAL_WEIGHT}"),
            F.expr("max(_own) AS _own"),  # the value is the cell's own
        )
    )

    # ---- Phase 2: spatially-aware Naive Bayes ---------------------------
    # Count(v, D) is small (one row per distinct value): broadcasting it
    # keeps the candidates where they are. A candidate value always occurs
    # in D (it is a neighbor's or the cell's own value), but the join is
    # guarded anyway: a missing count reads 1.
    cands = cands.join(F.broadcast(freq.withColumnRenamed("cnt", "_cnt_v")), on=VALUE, how="left")
    # Record-identifier factor: 1 for the original value, 0.1 otherwise
    # (both divided by Count(v, D)) — the minimality bias of §4.2.
    cnt_v = "coalesce(_cnt_v, 1)"
    own_factor = f"CASE WHEN _own THEN {sql_double(1.0)} ELSE {sql_double(MINIMALITY_PSEUDO_COUNT)} END"
    prob = f"({WEIGHT} / {sql_double(total)}) * ({own_factor} / {cnt_v})"

    # ---- Phase 3: normalisation, MinProb cutoff, MaxProb labeling -------
    # The total is taken before the cutoff: it is the weight of every
    # non-null neighbor, from which the §5 formulators score candidates.
    # A cell whose candidates all weigh 0 has no distribution: its
    # prob_norm is null, and the cutoff drops every candidate.
    cell = f"OVER (PARTITION BY {', '.join((*tile, ID))})"
    kept = (
        cands.selectExpr(*tile, ID, V1, VALUE, WEIGHT, SPATIAL_WEIGHT, f"{prob} AS {PROB}")
        .selectExpr(
            "*",
            f"try_divide({PROB}, sum({PROB}) {cell}) AS {PROB_NORM}",
            f"sum({SPATIAL_WEIGHT}) {cell} AS {TOTAL_WEIGHT}",
        )
        .where(f"{PROB_NORM} >= {sql_double(min_prob)}")
        .selectExpr(
            *tile, *CANDIDATE_COLUMNS, V1,
            f"count(1) {cell} = 1 OR max({PROB_NORM}) {cell} > {sql_double(max_prob)} AS {LABELED}",
        )
    )
    return CandidateResult(kept=kept)
