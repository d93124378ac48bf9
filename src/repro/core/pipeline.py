"""End-to-end Sparcle pipeline (Figure 2).

``sparcle_clean`` wires the three Sparcle modules together and hands the
formulated input to the requested host corrector:

    DistanceMatrix → error detector → candidate generator → formulator
    → host error corrector → repaired dataset

The spatial join pairs every record with itself as well as with its
neighbours, and those self pairs are the cells' own rows, so the detector
reads no second copy of the records. A range join partitions its rows by the
tile of ``r1``, each record in its own tile, and the exact join by the
location; the detector, Algorithm 2, the formatter and the arg-best key
every window and group-by by that key and the cell, so the call's plan has
no other shuffle than the join's: the small Count(v, D) table is counted on
one partition and broadcast. A kNN DistanceMatrix carries no key: the
detector shuffles it once, by cell, and the later stages run there. The
detector reads from the rows whether they hold both orientations of a pair.

``host_baseline_clean`` runs the *same* pipeline on the classical
exact-location denial constraint — i.e. the host data cleaning system
without spatial awareness (the paper's HoloClean competitor and the d=0
degenerate case of §6.1).
"""
import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.core import candidate_gen as cg
from repro.core import formulator
from repro.core.constraints import Constraint, ExactLocationConstraint
from repro.core.distance_matrix import V1, cell_rows
from repro.core.error_detector import flag_cells
from repro.hostsys.corrector import REPAIR, argbest
from repro.spatial.join import ID, compute_extent, sql_ident

#: Host corrector → (its §5 input formatter, whether a lower score is better).
_HOSTS = {
    "holoclean": (formulator.factor_features, False),
    "aimnet": (formulator.violation_features, True),
    "baran": (formulator.probability_features, False),
}
CORRECTORS = tuple(_HOSTS)


@dataclass
class CleanResult:
    """Output of one cleaning run over one constraint.

    ``repairs`` is the one frame the call computes: a local checkpoint of
    the changed cells, taken from the arg-best row of each flagged cell.
    ``repaired_df`` reads it, and nothing is cached.
    """

    repaired_df: DataFrame  # input df with the target attribute repaired, read from `repairs`
    repairs: DataFrame  # rid, old_value, new_value (changed cells only), a local checkpoint
    diagnostics: dict = field(default_factory=dict)  # n_records, elapsed_s


def _apply_fixes(df: DataFrame, best: DataFrame, attribute: str) -> tuple[DataFrame, DataFrame]:
    """Merge each cell's final value into ``df``; return (repaired df, changed cells).

    ``best`` is :func:`argbest`'s output, one row per cell with its own
    value ``v1``, so the changed cells are a filter of it, with no join.
    Checkpointing them runs the plan once; the repaired df reads it.
    """
    changed = (
        best.where(f"NOT ({REPAIR} <=> {V1})")
        .selectExpr(ID, f"{V1} AS old_value", f"{REPAIR} AS new_value")
        .localCheckpoint()
    )
    # The join puts the id first; the attribute keeps its place among the rest.
    value = sql_ident(attribute)
    repaired = df.join(changed.selectExpr(ID, "new_value"), on=ID, how="left").selectExpr(
        ID,
        *(
            f"coalesce(new_value, {value}) AS {value}" if c == attribute else sql_ident(c)
            for c in df.columns
            if c != ID
        ),
    )
    return repaired, changed


def sparcle_clean(
    df: DataFrame, constraint: Constraint, *, corrector: str = "holoclean"
) -> CleanResult:
    """Clean ``constraint.attribute`` of ``df``; see module docstring.

    ``df`` has the columns ``rid``, ``lat``, ``lon`` and the attribute; any
    other column is carried through untouched. For a range or an exact
    constraint the call runs two Spark actions, the input-contract
    aggregate (one Spark job) and the checkpoint of the changed cells; a
    kNN constraint adds one per radius-doubling round of
    :func:`repro.spatial.join.knn_pairs`. The call caches nothing.

    Raises ``ValueError`` naming the failed check when ``df`` has no
    attribute column (``missing column``, before any Spark job) or breaks
    the record contract :func:`repro.spatial.join.compute_extent` checks.
    """
    if corrector not in CORRECTORS:
        raise ValueError(f"corrector must be one of {CORRECTORS}, got {corrector!r}")
    t0 = time.perf_counter()
    attribute = constraint.attribute
    if attribute not in df.columns:
        raise ValueError(f"missing column: the input has no {attribute!r}")
    extent = compute_extent(df)
    n_records = extent.n

    # One join gives the DistanceMatrix and the own rows; the detector,
    # Algorithm 2, the formatter and the arg-best run on its partitioning.
    rows = cell_rows(df, constraint, extent=extent)
    detected = flag_cells(rows)
    cand = cg.generate_candidates(df, detected, attribute=attribute, total=n_records)
    formatter, lower_is_better = _HOSTS[corrector]
    best = argbest(formatter(cand.kept), lower_is_better=lower_is_better)
    repaired_df, changed = _apply_fixes(df, best, attribute)
    diagnostics = {"n_records": n_records, "elapsed_s": time.perf_counter() - t0}
    return CleanResult(repaired_df=repaired_df, repairs=changed, diagnostics=diagnostics)


def host_baseline_clean(
    df: DataFrame, attribute: str, *, corrector: str = "holoclean"
) -> CleanResult:
    """The host system without Sparcle: exact-location co-occurrence only."""
    return sparcle_clean(df, ExactLocationConstraint(attribute), corrector=corrector)
