"""Spatial candidate generator (§4, Algorithm 2).

Three phases per erroneous cell:

1. **Initial candidates** (§4.1): the values of all spatial neighbors,
   weighted by the summed DistanceMatrix weights (nearby co-occurrence
   instead of exact co-occurrence), plus the cell's own value at the
   default minimal weight 0.01 when no neighbor shares it.
2. **Probability estimation** (§4.2): spatially-aware Naive Bayes —
   ``Prob(C = v) = |Spatial(v,R)|/|D| × Π_{A'} Count((v,R.A'),D)/Count(v,D)``
   with the record-identifier factor following the minimality principle
   (1 for the cell's original value, 0.1 otherwise).
3. **Labeling and cutoffs** (§4.3): normalise per cell, drop candidates
   below ``MinProb``, and label a cell clean when a single candidate
   remains or the top one exceeds ``MaxProb``.

Everything is DataFrame algebra on the detector's rows, which are
hash-partitioned by cell: phase 1 is one group-by of each flagged cell's
neighbour values together with its own value, phase 2 a join against the
broadcast value-frequency table, and phase 3 windows over the cell. None of
them moves a row to another partition, and the result is one ``kept``
frame, which the §5 formatters score and ``hostsys.corrector.argbest``
ranks on the same partitioning. The labels and the candidates left for the
host corrector are views of it — no per-row Python, no anti-join.
"""
from dataclasses import dataclass
from typing import Sequence

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.distance_matrix import V1, V2, W
from repro.core.error_detector import FLAGGED, DetectorResult
from repro.spatial.join import ID, R1, R2

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
    prob_norm, then value) above MaxProb. It stays partitioned by cell.
    """

    kept: DataFrame

    @property
    def candidates(self) -> DataFrame:
        """Surviving candidates of the cells that are *still* erroneous."""
        return self.kept.where(~F.col(LABELED)).select(*CANDIDATE_COLUMNS)

    @property
    def labels(self) -> DataFrame:
        """Cells confidently resolved in phase 3; each label is a final repair."""
        order = Window.partitionBy(ID).orderBy(F.col(PROB_NORM).desc(), F.col(VALUE).asc())
        top = self.kept.where(F.col(LABELED)).withColumn("_rank", F.row_number().over(order))
        return top.where(F.col("_rank") == 1).select(ID, F.col(VALUE).alias("label"))


def value_frequency(df: DataFrame, attribute: str) -> DataFrame:
    """``Count(v, D)`` per non-null value — Figure 3b's statistics table."""
    return (
        df.where(F.col(attribute).isNotNull())
        .groupBy(F.col(attribute).alias(VALUE))
        .agg(F.count(F.lit(1)).alias("cnt"))
    )


def generate_candidates(
    df: DataFrame,
    detected: DetectorResult,
    *,
    attribute: str,
    other_attrs: Sequence[str] = (),
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
    own = F.col(R2) == F.col(R1)
    cands = (
        detected.rows.where(
            F.col(FLAGGED) & F.col(V2).isNotNull() & (F.col(W).isNotNull() | own)
        )
        .select(
            F.col(R1).alias(ID), V1, F.col(V2).alias(VALUE), F.col(W).alias("_w"),
            own.alias("_own"),
        )
        .groupBy(ID, V1, VALUE)
        .agg(
            F.coalesce(F.sum("_w"), F.lit(DEFAULT_OWN_WEIGHT)).alias(WEIGHT),
            F.coalesce(F.sum("_w"), F.lit(0.0)).alias(SPATIAL_WEIGHT),
            F.max("_own").alias("_own"),  # the value is the cell's own
        )
    )

    # ---- Phase 2: spatially-aware Naive Bayes ---------------------------
    # Count(v, D) is small (one row per distinct value): broadcasting it
    # keeps the candidates where they are.
    cands = (
        cands.join(F.broadcast(freq.withColumnRenamed("cnt", "_cnt_v")), on=VALUE, how="left")
        # A candidate value always occurs in D (it is a neighbor's or the
        # cell's own value) but guard the join anyway.
        .withColumn("_cnt_v", F.coalesce(F.col("_cnt_v"), F.lit(1)))
    )
    # Record-identifier factor: 1 for the original value, 0.1 otherwise
    # (both divided by Count(v, D)) — the minimality bias of §4.2.
    prob = (F.col(WEIGHT) / F.lit(float(total))) * (
        F.when(F.col("_own"), F.lit(1.0)).otherwise(F.lit(MINIMALITY_PSEUDO_COUNT))
        / F.col("_cnt_v")
    )
    # Generic non-spatial attributes A': Count((v, R.A'), D) / Count(v, D).
    for a in other_attrs:
        coocc = df.where(F.col(attribute).isNotNull()).groupBy(
            F.col(attribute).alias(VALUE), F.col(a).alias(f"_av_{a}")
        ).agg(F.count(F.lit(1)).alias(f"_co_{a}"))
        cands = (
            cands.join(
                df.select(F.col(ID), F.col(a).alias(f"_av_{a}")), on=ID
            )
            .join(coocc, on=[VALUE, f"_av_{a}"], how="left")
            .withColumn(
                f"_co_{a}",
                F.coalesce(F.col(f"_co_{a}"), F.lit(MINIMALITY_PSEUDO_COUNT)),
            )
        )
        prob = prob * (F.col(f"_co_{a}") / F.col("_cnt_v"))
    cands = cands.withColumn(PROB, prob)

    # ---- Phase 3: normalisation, MinProb cutoff, MaxProb labeling -------
    # The total is taken before the cutoff: it is the weight of every
    # non-null neighbor, from which the §5 formulators score candidates.
    # A cell whose candidates all weigh 0 has no distribution: its
    # prob_norm is null, and the cutoff drops every candidate.
    cell = Window.partitionBy(ID)
    single = F.count(F.lit(1)).over(cell) == 1
    confident = F.max(PROB_NORM).over(cell) > F.lit(float(max_prob))
    kept = (
        cands.withColumn(PROB_NORM, F.try_divide(F.col(PROB), F.sum(PROB).over(cell)))
        .withColumn(TOTAL_WEIGHT, F.sum(SPATIAL_WEIGHT).over(cell))
        .where(F.col(PROB_NORM) >= F.lit(float(min_prob)))
        .withColumn(LABELED, single | confident)
        .select(*CANDIDATE_COLUMNS, V1, LABELED)
    )
    return CandidateResult(kept=kept)
