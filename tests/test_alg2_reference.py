"""Property tests: Algorithms 1 and 2 + §5 formats + arg-best against a pandas reference.

Each seed builds a random table and DistanceMatrix and runs
``detect_errors`` → ``generate_candidates`` → formulator → ``argbest`` on
Spark, then compares the flagged cells, the kept candidates, the labels
and every host's repairs with the driver-only reference in
``tests/_alg2_reference.py``.
"""
import numpy as np
import pandas as pd
import pytest

from tests._alg2_reference import KEPT_COLS, detected, kept_candidates, labels, repairs
from repro.core.candidate_gen import generate_candidates
from repro.core.error_detector import detect_errors
from repro.core.pipeline import _HOSTS
from repro.hostsys.corrector import REPAIR, argbest

SEEDS = range(10)
VALUES = list("ABCDE")
DM_SCHEMA = "r1 long, r2 long, v1 string, v2 string, dist_m double, w double"


def random_case(seed: int) -> dict:
    """A table of 50–300 records, a random directed DM over it, and the error
    ids the reference detector flags on it.

    Every value occurs equally often, and weights are drawn partly from a
    few dyadic levels, so ties in ``prob_norm`` occur. The DM has null
    values on both sides and rows at W = 0; some error cells have no DM
    rows of their own, and some have only candidates of weight 0.
    """
    g = np.random.default_rng(seed)
    per_value = int(g.integers(8, 50))
    n_null = int(g.integers(2, 10))
    values = [*np.repeat(VALUES, per_value), *[None] * n_null]
    g.shuffle(values)
    n = len(values)
    df = pd.DataFrame({"rid": np.arange(n, dtype=np.int64), "ward": values})
    # No check reads it; it is drawn so that the draws after it keep their values.
    df["city"] = g.choice(["X", "Y", "Z", None], n)
    m = n * 6
    r1, r2 = g.integers(0, n, m), g.integers(0, n, m)
    keep = r1 != r2
    levels = np.array([0.0, 0.25, 0.5, 1.0])
    w = np.where(g.random(m) < 0.7, levels[g.integers(0, 4, m)], g.random(m))
    dm = pd.DataFrame({"r1": r1, "r2": r2, "dist_m": g.random(m) * 500, "w": w})[keep]
    dm = dm.drop_duplicates(["r1", "r2"]).reset_index(drop=True)
    dm["v1"] = df["ward"].to_numpy()[dm["r1"]]
    dm["v2"] = df["ward"].to_numpy()[dm["r2"]]
    dm = dm[["r1", "r2", "v1", "v2", "dist_m", "w"]]
    return {
        "df": df,
        "dm": dm,
        "err": np.array(sorted(detected(df, dm, attribute="ward")[0]), dtype=np.int64),
        "min_prob": 0.05 if seed % 3 else 0.3,
        "max_prob": 0.95 if seed % 4 else 0.6,
    }


def run_reference(case: dict) -> pd.DataFrame:
    return kept_candidates(
        case["df"], case["dm"], case["err"], attribute="ward",
        min_prob=case["min_prob"], max_prob=case["max_prob"],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_spark_matches_reference(spark, seed):
    case = random_case(seed)
    df = spark.createDataFrame(case["df"])
    det = detect_errors(
        df, spark.createDataFrame(case["dm"], schema=DM_SCHEMA), attribute="ward"
    )
    res = generate_candidates(
        df, det, attribute="ward", min_prob=case["min_prob"], max_prob=case["max_prob"],
    )
    ref = run_reference(case)

    got = res.candidates.toPandas().sort_values(["rid", "value"]).reset_index(drop=True)
    want = ref[~ref["labeled"]][KEPT_COLS].sort_values(["rid", "value"]).reset_index(drop=True)
    assert list(got.columns) == KEPT_COLS
    assert got[["rid", "value"]].values.tolist() == want[["rid", "value"]].values.tolist()
    for col in KEPT_COLS[2:]:
        np.testing.assert_allclose(got[col], want[col], rtol=1e-9, atol=0, err_msg=col)

    got_labels = {r.rid: r.label for r in res.labels.collect()}
    assert got_labels == labels(ref)

    for host, (formatter, lower_is_better) in _HOSTS.items():
        picked = argbest(formatter(res.kept), lower_is_better=lower_is_better)
        got_repairs = {r.rid: r[REPAIR] for r in picked.collect()}
        assert got_repairs == repairs(ref, host), host


@pytest.mark.parametrize("seed", SEEDS)
def test_detector_matches_reference(spark, seed):
    """On the whole DM almost every cell is flagged; a tenth of its rows
    leaves cells with no disagreeing neighbor, so both id sets are tested."""
    case = random_case(seed)
    df = spark.createDataFrame(case["df"])
    for dm in (case["dm"], case["dm"].head(len(case["dm"]) // 10)):
        res = detect_errors(df, spark.createDataFrame(dm, schema=DM_SCHEMA), attribute="ward")
        want_errors, want_clean = detected(case["df"], dm, attribute="ward")
        assert {r.rid for r in res.error_ids.collect()} == want_errors
        assert {r.rid for r in res.clean_ids.collect()} == want_clean
    assert want_errors and want_clean


def test_random_cases_cover_the_edge_cases():
    """The seeds exercise every case the property test is meant to reach."""
    seen = set()
    for seed in SEEDS:
        case = random_case(seed)
        df, dm, err = case["df"], case["dm"], set(case["err"])
        ref = run_reference(case)
        own = df.set_index("rid")["ward"]
        if dm["v1"].isna().any() and dm["v2"].isna().any():
            seen.add("null values on both sides")
        if (dm[dm["r1"].isin(err)]["w"] == 0).any():
            seen.add("neighbours at W = 0")
        if err - set(dm["r1"]):
            seen.add("error cell with no DM rows")
        if err & set(own[own.isna()].index):
            seen.add("error cell with a null value")
        supported = ref["spatial_weight"] > 0
        is_own = ref["value"].to_numpy() == own.loc[ref["rid"]].to_numpy()
        if (is_own & supported).any():
            seen.add("own value with neighbour support")
        if (is_own & ~supported).any():
            seen.add("own value without neighbour support")
        supported_cells = set(dm[dm["v2"].notna()]["r1"]) | set(own[own.notna()].index)
        has_cands = err & supported_cells
        weights = dm[dm["v2"].notna()].groupby("r1")["w"].sum()
        zero = {
            r for r in has_cands
            if weights.get(r, 0.0) == 0
            and (pd.isna(own[r]) or own[r] in set(dm[dm["r1"] == r]["v2"]))
        }
        if zero:
            seen.add("every candidate weighs 0")
        if has_cands - zero - set(ref["rid"]):
            seen.add("every candidate below MinProb")
        if ref.duplicated(["rid", "prob_norm"]).any():
            seen.add("ties in prob_norm")
        if ref["labeled"].any() and (~ref["labeled"]).any():
            seen.add("labels and candidates")
    assert seen == {
        "null values on both sides", "neighbours at W = 0",
        "error cell with no DM rows", "error cell with a null value",
        "own value with neighbour support", "own value without neighbour support",
        "every candidate below MinProb", "every candidate weighs 0", "ties in prob_norm",
        "labels and candidates",
    }
