"""Driver-only pandas reference of Algorithms 1 (§3.3) and 2 (§4) and the §5 arg-best.

An independent, cell-by-cell restatement of what ``detect_errors``,
``generate_candidates``, the three formulators and
``hostsys.corrector.argbest`` compute. It shares no code with them, so the
property tests in ``test_alg2_reference.py`` compare two implementations,
not one twice.
"""
import pandas as pd

DEFAULT_OWN_WEIGHT = 0.01
PSEUDO = 0.1
KEPT_COLS = ["rid", "value", "weight", "spatial_weight", "total_weight", "prob", "prob_norm"]


def _count(series: pd.Series) -> dict:
    return series.dropna().value_counts().to_dict()


def detected(df, dm, *, attribute) -> tuple[set, set]:
    """Alg. 1: (error ids, clean ids). Both ends of every DM row whose values
    differ, a null differing from any value, plus every null-valued cell."""
    errors = set(df.loc[df[attribute].isna(), "rid"])
    for r1, r2, v1, v2 in zip(dm["r1"], dm["r2"], dm["v1"], dm["v2"]):
        if pd.isna(v1) != pd.isna(v2) or (pd.notna(v1) and v1 != v2):
            errors |= {r1, r2}
    return errors, set(df["rid"]) - errors


def kept_candidates(df, dm, error_ids, *, attribute, min_prob, max_prob):
    """Phases 1–3: the kept candidates, each with ``labeled`` and ``rank``.

    ``dm`` may hold the cells' own rows (``r2 = r1``); they are no neighbours.
    """
    total = len(df)
    cnt = _count(df[attribute])
    rec = df.set_index("rid")
    rows = []
    for rid in sorted(set(error_ids)):
        own = rec.at[rid, attribute]
        # Phase 1: summed weights of non-null neighbour values, plus the own
        # value at the default weight when no neighbour shares it.
        nb = dm[(dm["r1"] == rid) & (dm["r2"] != rid) & dm["v2"].notna()]
        sw = {v: float(g["w"].sum()) for v, g in nb.groupby("v2")}
        cands = {v: (w, w) for v, w in sw.items()}
        if pd.notna(own) and own not in cands:
            cands[own] = (DEFAULT_OWN_WEIGHT, 0.0)
        if not cands:
            continue
        # Phase 2: spatial term × record-id factor.
        probs = {
            v: (weight / float(total)) * ((1.0 if v == own else PSEUDO) / cnt[v])
            for v, (weight, _) in cands.items()
        }
        # Phase 3: normalise, cut at MinProb, rank, label at MaxProb.
        z = sum(probs.values())
        t = sum(s for _, s in cands.values())
        kept = [
            (v, probs[v] / z) for v in cands if z > 0 and probs[v] / z >= min_prob
        ]
        kept.sort(key=lambda vp: (-vp[1], vp[0]))
        labeled = len(kept) == 1 or (bool(kept) and kept[0][1] > max_prob)
        for rank, (v, pn) in enumerate(kept, start=1):
            weight, s = cands[v]
            rows.append((rid, v, weight, s, t, probs[v], pn, labeled, rank))
    return pd.DataFrame(rows, columns=[*KEPT_COLS, "labeled", "rank"])


def labels(kept: pd.DataFrame) -> dict:
    top = kept[kept["labeled"] & (kept["rank"] == 1)]
    return dict(zip(top["rid"], top["value"]))


def scores(cands: pd.DataFrame, host: str) -> pd.Series:
    """The §5 format of ``host`` for each still-erroneous candidate."""
    sw, t = cands["spatial_weight"], cands["total_weight"]
    if host == "aimnet":
        return t - sw
    if host == "holoclean":
        return 2 * sw - t
    denom = sw.groupby(cands["rid"]).transform("sum")
    return (sw / denom).where(denom > 0, 0.0)


def repairs(kept: pd.DataFrame, host: str) -> dict:
    """Labels plus the arg-best candidate of every other cell."""
    cands = kept[~kept["labeled"]].copy()
    cands["score"] = scores(cands, host)
    sign = 1.0 if host == "aimnet" else -1.0  # AimNet: lower is better
    cands["_key"] = sign * cands["score"]
    cands["_neg_p"] = -cands["prob_norm"]
    best = cands.sort_values(["rid", "_key", "_neg_p", "value"]).groupby("rid").head(1)
    return {**labels(kept), **dict(zip(best["rid"], best["value"]))}
