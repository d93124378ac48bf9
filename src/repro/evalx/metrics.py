"""Cleaning-accuracy metrics (§6, "Evaluation Metrics").

- *Precision*: correct repairs / repairs made;
- *Recall*: correct repairs / injected errors;
- *F1*: harmonic mean.

A cell counts as repaired iff its final value differs (null-safely) from
the observed value; a repair is correct iff the final value equals ground
truth. Correct repairs are a subset of the injected errors by construction
(changing an already-correct cell cannot yield a correct value).

Evaluation happens on collected pandas frames: result sets are O(errors),
far below driver memory at every scale used here, and the bookkeeping
(duplication splits, per-record overall rows) is clearer off-cluster.
"""
from dataclasses import dataclass

import pandas as pd

from repro.spatial.join import ID, LAT, LON


@dataclass(frozen=True)
class RepairMetrics:
    precision: float
    recall: float
    f1: float
    n_errors: int
    n_repairs: int
    n_correct_repairs: int


def _final_values(pdf: pd.DataFrame, repairs: pd.DataFrame, attribute: str) -> pd.Series:
    """Observed values with repairs applied (indexed like ``pdf``)."""
    final = pdf[attribute].copy()
    if len(repairs):
        fix = repairs.set_index(ID)["new_value"]
        rid_index = pdf[ID]
        mask = rid_index.isin(fix.index)
        final.loc[mask] = rid_index[mask].map(fix).values
    return final


def _cell_outcome(
    pdf: pd.DataFrame, repairs: pd.DataFrame, attribute: str
) -> tuple[pd.Series, pd.Series, pd.Series]:
    """``(is_error, repaired, final value == truth)`` masks over ``attribute``'s cells."""
    truth = pdf[f"{attribute}__truth"]
    observed = pdf[attribute]
    final = _final_values(pdf, repairs, attribute)
    is_error = observed.isna() | (observed != truth)
    repaired = (final != observed) & ~(final.isna() & observed.isna())
    return is_error, repaired, final == truth


def _scored(is_error: pd.Series, repaired: pd.Series, correct: pd.Series) -> RepairMetrics:
    """Precision, recall and F1 of the ``correct`` repairs among ``repaired``."""
    n_rep, n_cor, n_err = int(repaired.sum()), int(correct.sum()), int(is_error.sum())
    p = n_cor / n_rep if n_rep else 0.0
    r = n_cor / n_err if n_err else 0.0
    return RepairMetrics(
        precision=p, recall=r, f1=2 * p * r / (p + r) if (p + r) > 0 else 0.0,
        n_errors=n_err, n_repairs=n_rep, n_correct_repairs=n_cor,
    )


def evaluate_repairs(pdf: pd.DataFrame, repairs: pd.DataFrame, *, attribute: str) -> RepairMetrics:
    """Score one dependency's cleaning outcome against ``<attribute>__truth``."""
    is_error, repaired, final_correct = _cell_outcome(pdf, repairs, attribute)
    return _scored(is_error, repaired, repaired & final_correct)


@dataclass(frozen=True)
class DuplicationSplit:
    """Table-1 style recall breakdown by error-location duplication."""

    total_recall: float
    duplicated_recall: float
    new_location_recall: float
    n_duplicated: int
    n_new: int


def duplication_split(
    pdf: pd.DataFrame, repairs: pd.DataFrame, *, attribute: str
) -> DuplicationSplit:
    """Recall over all errors, errors at duplicated locations of correct
    records, and errors at new locations (the paper's Table 1)."""
    is_error, _, final_correct = _cell_outcome(pdf, repairs, attribute)
    fixed = is_error & final_correct

    correct_locs = set(
        zip(pdf.loc[~is_error, LAT], pdf.loc[~is_error, LON])
    )
    at_dup = pd.Series(
        [(la, lo) in correct_locs for la, lo in zip(pdf[LAT], pdf[LON])],
        index=pdf.index,
    )
    dup_err, new_err = is_error & at_dup, is_error & ~at_dup

    def rate(num: pd.Series, den: pd.Series) -> float:
        d = int(den.sum())
        return int(num.sum()) / d if d else 0.0

    return DuplicationSplit(
        total_recall=rate(fixed, is_error),
        duplicated_recall=rate(fixed & at_dup, dup_err),
        new_location_recall=rate(fixed & ~at_dup, new_err),
        n_duplicated=int(dup_err.sum()),
        n_new=int(new_err.sum()),
    )


def overall_record_metrics(
    pdf: pd.DataFrame, repairs_by_attr: dict[str, pd.DataFrame]
) -> RepairMetrics:
    """Table-4 "Overall" row: per-record across all dependencies.

    A record is an error if any dependency cell is erroneous, repaired if
    any cell was changed, and correctly repaired if it was repaired and
    every dependency cell ends up correct (the paper: "records that are
    completely corrected for all their functional dependencies").
    """
    any_error = pd.Series(False, index=pdf.index)
    any_repair = pd.Series(False, index=pdf.index)
    all_correct = pd.Series(True, index=pdf.index)
    for attribute, repairs in repairs_by_attr.items():
        is_error, repaired, final_correct = _cell_outcome(pdf, repairs, attribute)
        any_error |= is_error
        any_repair |= repaired
        all_correct &= final_correct
    return _scored(any_error, any_repair, any_repair & all_correct)
