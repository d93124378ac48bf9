"""End-to-end Sparcle pipeline (Figure 2).

``sparcle_clean`` wires the three Sparcle modules together and hands the
formulated input to the requested host corrector:

    DistanceMatrix → error detector → candidate generator → formulator
    → host error corrector → repaired dataset

``host_baseline_clean`` runs the *same* pipeline on the classical
exact-location denial constraint — i.e. the host data cleaning system
without spatial awareness (the paper's HoloClean competitor and the d=0
degenerate case of §6.1).
"""
import time
from dataclasses import dataclass, field
from typing import Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import candidate_gen as cg
from repro.core import formulator
from repro.core.constraints import Constraint, ExactLocationConstraint
from repro.core.distance_matrix import build_distance_matrix
from repro.core.error_detector import detect_errors
from repro.hostsys.corrector import REPAIR, argbest
from repro.spatial.join import Extent, extent_aggs, extent_from_row

#: Host corrector → (its §5 input formatter, whether a lower score is better).
_HOSTS = {
    "holoclean": (formulator.factor_features, False),
    "aimnet": (formulator.violation_features, True),
    "baran": (formulator.probability_features, False),
}
CORRECTORS = tuple(_HOSTS)


@dataclass
class CleanResult:
    """Output of one cleaning run over one constraint; nothing in it is cached."""

    repaired_df: DataFrame  # input df with the target attribute repaired, read from `repairs`
    repairs: DataFrame  # id_col, old_value, new_value (changed cells only), a local checkpoint
    diagnostics: dict = field(default_factory=dict)  # n_records, elapsed_s


def _apply_fixes(
    df: DataFrame, fixes: DataFrame, attribute: str, id_col: str
) -> tuple[DataFrame, DataFrame]:
    """Merge final values into ``df``; return (repaired df, changed cells).

    Checkpointing the changed cells runs the plan once; the repaired df reads it.
    """
    fixes = fixes.select(F.col(id_col), F.col(REPAIR).alias("new_value"))
    changed = (
        df.join(fixes, on=id_col)
        .where(F.col("new_value").isNotNull() & ~F.col("new_value").eqNullSafe(F.col(attribute)))
        .select(F.col(id_col), F.col(attribute).alias("old_value"), F.col("new_value"))
        .localCheckpoint()
    )
    repaired = (
        df.join(changed.select(id_col, "new_value"), on=id_col, how="left")
        .withColumn(attribute, F.coalesce(F.col("new_value"), F.col(attribute)))
        .drop("new_value")
    )
    return repaired, changed


def _checked_extent(df: DataFrame, *, id_col: str, lat_col: str, lon_col: str) -> Extent:
    """Check the input contract and return the input's extent, in one pass.

    Ids must be unique and non-null, and coordinates finite and in range:
    a record the spatial join cannot place would silently drop out of the
    DistanceMatrix and never be checked.
    """
    lat, lon = F.col(lat_col), F.col(lon_col)
    bad = (
        lat.isNull() | lon.isNull() | F.isnan(lat) | F.isnan(lon)
        | (F.abs(lat) > 90) | (F.abs(lon) > 180)
    )
    row = df.agg(
        *extent_aggs(lat_col, lon_col),
        F.count(F.when(F.col(id_col).isNull(), 1)).alias("null_ids"),
        F.count_distinct(id_col).alias("distinct_ids"),
        F.count(F.when(bad, 1)).alias("bad_coords"),
    ).first()
    if row["null_ids"]:
        raise ValueError(f"null id: {row['null_ids']} record(s) have a null {id_col!r}")
    if row["distinct_ids"] != row["n"]:
        raise ValueError(
            f"duplicate id: {row['n'] - row['distinct_ids']} record(s) repeat an {id_col!r}"
        )
    if row["bad_coords"]:
        raise ValueError(
            f"bad coordinates: {row['bad_coords']} record(s) have a null, NaN or "
            f"out-of-range {lat_col!r}/{lon_col!r}"
        )
    return extent_from_row(row)


def sparcle_clean(
    df: DataFrame,
    constraint: Constraint,
    *,
    corrector: str = "holoclean",
    id_col: str = "rid",
    lat_col: str = "lat",
    lon_col: str = "lon",
    other_attrs: Sequence[str] = (),
    min_prob: float = 0.05,
    max_prob: float = 0.95,
) -> CleanResult:
    """Clean ``constraint.attribute`` of ``df``; see module docstring.

    Runs two Spark actions, the input-contract aggregate and the checkpoint
    of the changed cells, and releases its caches before it returns.

    Raises ``ValueError`` naming the failed check when ``df`` breaks the
    input contract (see :func:`_checked_extent`).
    """
    if corrector not in CORRECTORS:
        raise ValueError(f"corrector must be one of {CORRECTORS}, got {corrector!r}")
    t0 = time.perf_counter()
    attribute = constraint.attribute
    extent = _checked_extent(df, id_col=id_col, lat_col=lat_col, lon_col=lon_col)
    n_records = extent.n

    dm = build_distance_matrix(
        df, constraint, id_col=id_col, lat_col=lat_col, lon_col=lon_col, extent=extent
    ).cache()  # the detector and the candidate generator both scan it
    detected = detect_errors(df, dm, attribute=attribute, id_col=id_col)
    cand = cg.generate_candidates(
        df,
        dm,
        detected.error_ids,
        attribute=attribute,
        id_col=id_col,
        other_attrs=other_attrs,
        min_prob=min_prob,
        max_prob=max_prob,
        total=n_records,
    )
    kept = cand.kept.cache()  # the labels and the corrector both read it

    formatter, lower_is_better = _HOSTS[corrector]
    corrected = argbest(
        formatter(cand.candidates, id_col=id_col), id_col=id_col, lower_is_better=lower_is_better
    )
    fixes = (
        cand.labels.select(F.col(id_col), F.col("label").alias(REPAIR))
        .unionByName(corrected.select(F.col(id_col), F.col(REPAIR)))
    )
    try:  # the checkpoint fills both caches; nothing reads them after it
        repaired_df, changed = _apply_fixes(df, fixes, attribute, id_col)
    finally:
        dm.unpersist(blocking=False)
        kept.unpersist(blocking=False)
    diagnostics = {"n_records": n_records, "elapsed_s": time.perf_counter() - t0}
    return CleanResult(repaired_df=repaired_df, repairs=changed, diagnostics=diagnostics)


def host_baseline_clean(
    df: DataFrame,
    attribute: str,
    *,
    corrector: str = "holoclean",
    id_col: str = "rid",
    lat_col: str = "lat",
    lon_col: str = "lon",
    other_attrs: Sequence[str] = (),
    min_prob: float = 0.05,
    max_prob: float = 0.95,
) -> CleanResult:
    """The host system without Sparcle: exact-location co-occurrence only."""
    return sparcle_clean(
        df,
        ExactLocationConstraint(attribute),
        corrector=corrector,
        id_col=id_col,
        lat_col=lat_col,
        lon_col=lon_col,
        other_attrs=other_attrs,
        min_prob=min_prob,
        max_prob=max_prob,
    )
