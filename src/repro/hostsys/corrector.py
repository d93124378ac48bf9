"""Arg-best host error corrector (substrate) for all three §5 formats.

AimNet [49] is the attention-based learner shipping as HoloClean's
open-source error-correction method; it consumes one violation-score
feature vector per cell per constraint. With every non-spatial signal
muted (as the paper does for its comparison), the learned decision reduces
to preferring the candidate with the *least* weighted constraint
violation. HoloClean's own error correction is MAP inference over a Markov
Logic Network factor graph [41, 43]; with cells treated independently,
MAP inference is the arg-max of the per-candidate factor sums of Figure
4(c). The Baran-format probability vectors take the same arg-max. In
every case ties break toward the higher candidate probability from
Algorithm 2, then the smaller value for determinism (substitution
documented in DESIGN.md).
"""
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.candidate_gen import PROB_NORM, VALUE
from repro.core.formulator import SCORE
from repro.spatial.join import ID

REPAIR = "repair"


def argbest(scored: DataFrame, *, lower_is_better: bool) -> DataFrame:
    """Pick, per cell, the best-scored candidate of a formulator's output."""
    score_order = F.col(SCORE).asc() if lower_is_better else F.col(SCORE).desc()
    w = Window.partitionBy(ID).orderBy(
        score_order, F.col(PROB_NORM).desc(), F.col(VALUE).asc()
    )
    return (
        scored.withColumn("_rank", F.row_number().over(w))
        .where(F.col("_rank") == 1)
        .select(F.col(ID), F.col(VALUE).alias(REPAIR))
    )
