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

Everything is DataFrame algebra and runs as one pass per call: phase 1 is
a single group-by of the cells' neighbor values together with their own
values, phase 2 a join against the value-frequency table, and phase 3
two windows that end in one ``kept`` frame. The labels and the candidates
left for the host corrector are both filters of that frame — no per-row
Python, no anti-join.
"""
from dataclasses import dataclass
from typing import Sequence

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.distance_matrix import V2, W
from repro.spatial.join import ID, R1

VALUE = "value"
WEIGHT = "weight"  # phase-1 sum of weights (|Spatial(v, R)|, or 0.01 default)
SPATIAL_WEIGHT = "spatial_weight"  # neighbor-only part (0 if own-value-only)
TOTAL_WEIGHT = "total_weight"  # the cell's summed spatial_weight, before MinProb
PROB = "prob"
PROB_NORM = "prob_norm"

#: Default minimal weight for the cell's own value when no neighbor shares
#: it (§4.1), and the minimality-principle pseudo-count (§4.2).
DEFAULT_OWN_WEIGHT = 0.01
MINIMALITY_PSEUDO_COUNT = 0.1


@dataclass(frozen=True)
class CandidateResult:
    """Output of Algorithm 2: one frame, ``kept``, and two views of it.

    ``kept`` holds every candidate that survives the MinProb cutoff (id,
    value, weight, spatial_weight, total_weight, prob, prob_norm) with its
    ``_rank`` in the cell, by prob_norm then value, and the cell's
    ``_labeled`` flag: one candidate left, or the top one above MaxProb.
    Callers that read both views cache ``kept`` once, so phases 1–3 run once.
    """

    kept: DataFrame

    @property
    def candidates(self) -> DataFrame:
        """Surviving candidates of the cells that are *still* erroneous."""
        return self.kept.where(~F.col("_labeled")).drop("_rank", "_labeled")

    @property
    def labels(self) -> DataFrame:
        """Cells confidently resolved in phase 3; each label is a final repair."""
        top = self.kept.where(F.col("_labeled") & (F.col("_rank") == 1))
        return top.select(ID, F.col(VALUE).alias("label"))


def value_frequency(df: DataFrame, attribute: str) -> DataFrame:
    """``Count(v, D)`` per non-null value — Figure 3b's statistics table."""
    return (
        df.where(F.col(attribute).isNotNull())
        .groupBy(F.col(attribute).alias(VALUE))
        .agg(F.count(F.lit(1)).alias("cnt"))
    )


def generate_candidates(
    df: DataFrame,
    dm: DataFrame,
    error_ids: DataFrame,
    *,
    attribute: str,
    other_attrs: Sequence[str] = (),
    min_prob: float = 0.05,
    max_prob: float = 0.95,
    freq: DataFrame | None = None,
    total: int | None = None,
) -> CandidateResult:
    """Run all three phases; see module docstring.

    ``freq``/``total`` default to statistics of ``df`` and are overridable
    so the paper's worked example (Figure 3b: |D| = 1000) is testable
    verbatim.
    """
    freq = freq if freq is not None else value_frequency(df, attribute)
    total = total if total is not None else df.count()

    # ---- Phase 1: weighted nearby co-occurrence --------------------------
    # One group-by over the neighbor values and the weightless own values:
    # a value no neighbor shares sums to null, so it takes the default.
    neighbors = (
        dm.join(error_ids.select(F.col(ID).alias(R1)), on=R1)
        .where(F.col(V2).isNotNull())
        .select(F.col(R1).alias(ID), F.col(V2).alias(VALUE), F.col(W).alias("_w"))
    )
    own = (
        df.join(error_ids, on=ID, how="leftsemi")
        .where(F.col(attribute).isNotNull())
        .select(F.col(ID), F.col(attribute).alias(VALUE), F.lit(True).alias("_own"))
    )
    cands = (
        neighbors.unionByName(own, allowMissingColumns=True)
        .groupBy(ID, VALUE)
        .agg(
            F.coalesce(F.sum("_w"), F.lit(DEFAULT_OWN_WEIGHT)).alias(WEIGHT),
            F.coalesce(F.sum("_w"), F.lit(0.0)).alias(SPATIAL_WEIGHT),
            F.max("_own").alias("_own"),  # true, or null without an own row
        )
    )

    # ---- Phase 2: spatially-aware Naive Bayes ---------------------------
    cands = (
        cands.join(freq.withColumnRenamed("cnt", "_cnt_v"), on=VALUE, how="left")
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
    order = Window.partitionBy(ID).orderBy(F.col(PROB_NORM).desc(), F.col(VALUE).asc())
    single = F.count(F.lit(1)).over(cell) == 1
    confident = F.max(PROB_NORM).over(cell) > F.lit(float(max_prob))
    kept = (
        cands.withColumn(PROB_NORM, F.try_divide(F.col(PROB), F.sum(PROB).over(cell)))
        .withColumn(TOTAL_WEIGHT, F.sum(SPATIAL_WEIGHT).over(cell))
        .where(F.col(PROB_NORM) >= F.lit(float(min_prob)))
        .withColumn("_rank", F.row_number().over(order))
        .withColumn("_labeled", single | confident)
        .select(
            ID, VALUE, WEIGHT, SPATIAL_WEIGHT, TOTAL_WEIGHT, PROB, PROB_NORM, "_rank", "_labeled"
        )
    )
    return CandidateResult(kept=kept)
