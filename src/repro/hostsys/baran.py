"""Baran competitor (substrate) — an in-memory, driver-side system.

Baran [31] is configuration-free: it assumes a dependency from *every*
other attribute to the target and learns exact value-co-occurrence models
for each. It is explicitly an in-memory framework (the paper's §6.5 shows
it failing on 731K+ rows for exactly this reason), so the reproduction
implements it in pandas on the driver: memory bound in one process, the
property behind the paper's out-of-memory failure. At this repository's
scale it is not the slowest system but the fastest: ``results/table4.csv``
has it at 0.07–0.20 s per dependency against 1.7–13.5 s for Sparcle and
the host baseline.
The human-in-the-loop sampling of the original is omitted for all systems
alike (no system here sees ground-truth labels; DESIGN.md documents the
substitution).

Error detection mirrors the exact-equality denial constraint plus the null
detector (standing in for Raha [32]): a cell is erroneous iff its value is
missing or it is co-located with a record carrying a different value.

Correction: for each per-attribute model ``a → A`` (here ``lat → A``,
``lon → A`` and ``(lat, lon) → A``), the conditional distribution of the
target given the record's exact ``a`` value, learned from every non-null
cell of the dirty data and summed across models; arg-max wins (ties
resolve to the lexicographically smallest value, deterministically).
Cells whose feature values never co-occur with any *other* record's
target value (records at brand-new locations) get no useful prediction —
exactly the failure mode Sparcle's spatial neighborhood removes.
"""
from dataclasses import dataclass

import pandas as pd

from repro.spatial.join import ID, LAT, LON


@dataclass(frozen=True)
class BaranResult:
    """Repairs plus detection bookkeeping for the metrics layer."""

    repairs: pd.DataFrame  # columns: rid, repair
    n_detected: int
    n_models: int


def _detect(pdf: pd.DataFrame, attribute: str) -> pd.Series:
    nulls = pdf[attribute].isna()
    loc = pdf.groupby([LAT, LON])[attribute]
    conflict = loc.transform("nunique") > 1  # nunique ignores NaN
    return nulls | conflict


def baran_clean(pdf: pd.DataFrame, *, attribute: str) -> BaranResult:
    """Detect and correct errors of ``attribute`` in-memory; see module doc."""
    pdf = pdf[[ID, LAT, LON, attribute]].copy()
    is_err = _detect(pdf, attribute)
    errors = pdf[is_err]
    # Like the real system, co-occurrence statistics come from the (dirty)
    # data itself: every non-null cell is evidence, detected or not.
    evidence = pdf[pdf[attribute].notna()]

    feature_sets: list[list[str]] = [[LAT], [LON], [LAT, LON]]
    votes: dict[tuple, dict] = {}

    for feats in feature_sets:
        # Conditional distribution P(target | feats) from presumed-clean rows.
        model = (
            evidence.groupby(feats + [attribute]).size().rename("cnt").reset_index()
        )
        grp_tot = model.groupby(feats)["cnt"].transform("sum")
        model["p"] = model["cnt"] / grp_tot
        # Merge on the feature columns only: the error rows' own (possibly
        # wrong) target value must not shadow the model's target column.
        scored = errors[[ID, *feats]].merge(model, on=feats, how="inner")
        for rid, val, p in zip(scored[ID], scored[attribute], scored["p"]):
            votes.setdefault(rid, {})
            votes[rid][val] = votes[rid].get(val, 0.0) + p

    rows = []
    observed = dict(zip(pdf[ID], pdf[attribute]))
    for rid, dist in votes.items():
        best = max(sorted(dist.items(), key=lambda kv: str(kv[0])), key=lambda kv: kv[1])[0]
        obs = observed.get(rid)
        if pd.isna(obs) or best != obs:
            rows.append((rid, best))
    repairs = pd.DataFrame(rows, columns=[ID, "repair"])
    return BaranResult(
        repairs=repairs, n_detected=int(is_err.sum()), n_models=len(feature_sets)
    )
