"""Spatial input formulators (§5).

Each host error-correction method consumes a different input format; the
formulator scores every surviving candidate of every still-erroneous cell
in that format, always from the same two ingredients: the DistanceMatrix
weights (distance weighting) restricted to each cell's neighborhood
(spatial neighborhood).

Algorithm 2's phase 1 has already summed those weights per (cell, value)
as ``spatial_weight`` (sw), and per cell as ``total_weight`` (T, the
weight of every non-null neighbor), so each format is one SQL
expression over the candidates:

- :func:`violation_features` — AimNet (§5.1): per candidate, the *sum of
  weights* of the constraint violations the cell would cause by taking
  that candidate, the weight of the neighbors that disagree: T − sw.
  Lower is better.
- :func:`probability_features` — Baran (§5.2): per candidate, the
  normalised spatial-co-occurrence probability of the combined
  ``(lat, lon) → A`` dependency, sw/Σsw over the cell's candidates;
  candidates with no proximity co-occurrence get 0. Higher is better.
- :func:`factor_features` — HoloClean/MLNClean (§5.3): per candidate, the
  weighted sum of factor functions ``Σ W · (+1 if neighbor agrees else
  −1)``, that is sw − (T − sw). Higher is better.

Null-valued neighbors are excluded everywhere (phase 1 drops them): a
missing value can neither satisfy nor violate a dependency instance.
Each function takes the candidates and returns them with a ``score``
column added, so the pipeline can pick one by host name.
"""
from pyspark.sql import DataFrame

from repro.core.candidate_gen import SPATIAL_WEIGHT, TOTAL_WEIGHT
from repro.spatial.join import ID, sql_double, tile_columns

SCORE = "score"


def violation_features(cands: DataFrame) -> DataFrame:
    """AimNet format: the summed weight of the disagreeing neighbors."""
    return cands.selectExpr("*", f"{TOTAL_WEIGHT} - {SPATIAL_WEIGHT} AS {SCORE}")


def probability_features(cands: DataFrame) -> DataFrame:
    """Baran format: spatial weight normalised over the cell's candidates.

    Uses the neighbor-only weight (``spatial_weight``): a candidate kept
    only because it is the cell's original value has no proximity
    co-occurrence and scores 0, as in Figure 4(b).
    """
    by_cell = ", ".join((*tile_columns(cands), ID))
    denom = f"sum({SPATIAL_WEIGHT}) OVER (PARTITION BY {by_cell})"
    return cands.selectExpr(
        "*",
        f"CASE WHEN {denom} > 0 THEN {SPATIAL_WEIGHT} / {denom} ELSE {sql_double(0.0)} END AS {SCORE}",
    )


def factor_features(cands: DataFrame) -> DataFrame:
    """HoloClean format: agreeing minus disagreeing neighbor weight."""
    return cands.selectExpr("*", f"2 * {SPATIAL_WEIGHT} - {TOTAL_WEIGHT} AS {SCORE}")
