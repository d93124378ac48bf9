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

A cell that Algorithm 2 has already labeled keeps its label: the top
candidate by probability, then value. Both rules are one ranking window
over the cell (after the join's key the candidates carry, if any), so the
labels and the corrected cells come out of one pass on the cell
partitioning that Algorithm 2 leaves.
"""
from pyspark.sql import DataFrame

from repro.core.candidate_gen import LABELED, PROB_NORM, VALUE
from repro.core.formulator import SCORE
from repro.spatial.join import ID, sql_double, tile_columns

REPAIR = "repair"


def argbest(scored: DataFrame, *, lower_is_better: bool) -> DataFrame:
    """Per cell, the row of its final value: the label, or the best-scored candidate.

    ``scored`` is a formulator's output over Algorithm 2's kept candidates,
    with their ``labeled`` flag. The result keeps that row's columns, with
    ``value`` renamed to ``repair``.
    """
    score = SCORE if lower_is_better else f"-{SCORE}"
    order = (
        f"CASE WHEN {LABELED} THEN {sql_double(0.0)} ELSE {score} END ASC,"
        f" {PROB_NORM} DESC, {VALUE} ASC"
    )
    by_cell = ", ".join((*tile_columns(scored), ID))
    return (
        scored.selectExpr(
            "*", f"row_number() OVER (PARTITION BY {by_cell} ORDER BY {order}) AS _rank"
        )
        .where("_rank = 1")
        .drop("_rank")
        .withColumnRenamed(VALUE, REPAIR)
    )
