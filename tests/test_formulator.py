"""Spatial input formulators (§5): Figure 4's three vectors for r1."""
import pandas as pd
import pytest

from repro.core import formulator
from repro.core.candidate_gen import generate_candidates
from repro.core.error_detector import detect_errors
from repro.evalx.toy import MAN, QUE, SIS, TOY_TOTAL, toy_df, toy_dm, toy_freq


@pytest.fixture(scope="module")
def toy(spark):
    df, dm, freq = toy_df(spark), toy_dm(spark), toy_freq(spark)
    det = detect_errors(df, dm, attribute="borough")
    res = generate_candidates(
        df, det, attribute="borough", freq=freq, total=TOY_TOTAL,
        min_prob=0.0, max_prob=1.1,  # keep all candidates for the vectors
    )
    return dm, res.candidates


def scores(df, rid):
    pdf = df.toPandas()
    return pdf[pdf["rid"] == rid].set_index("value")["score"]


class TestViolationFeatures:
    """Figure 4(a), Sparcle column: 0.12 / 0.89 / 1.01 for r1."""

    def test_r1_vector(self, toy):
        _, cands = toy
        s = scores(formulator.violation_features(cands), 1)
        assert s[MAN] == pytest.approx(0.12)
        assert s[QUE] == pytest.approx(0.89)
        assert s[SIS] == pytest.approx(1.01)

    def test_lowest_violation_is_favored_value(self, toy):
        _, cands = toy
        s = scores(formulator.violation_features(cands), 1)
        assert s.idxmin() == MAN  # §5.1: spatial awareness favors Manhattan

    def test_all_candidates_scored(self, toy):
        _, cands = toy
        out = formulator.violation_features(cands).toPandas()
        assert len(out) == cands.count()


class TestProbabilityFeatures:
    """Figure 4(b), Sparcle column: 0.88 / 0.12 / 0 for r1."""

    def test_r1_vector(self, toy):
        _, cands = toy
        s = scores(formulator.probability_features(cands), 1)
        assert s[MAN] == pytest.approx(0.89 / 1.01, abs=0.005)  # ≈ 0.88
        assert s[QUE] == pytest.approx(0.12 / 1.01, abs=0.005)  # ≈ 0.12
        assert s[SIS] == 0.0  # no proximity co-occurrence

    def test_sums_to_one_when_support_exists(self, toy):
        _, cands = toy
        out = formulator.probability_features(cands).toPandas()
        sums = out.groupby("rid")["score"].sum()
        assert sums.values == pytest.approx([1.0] * len(sums))

    def test_no_support_all_zero(self, spark):
        cands = spark.createDataFrame(
            pd.DataFrame(
                {
                    "rid": [9], "value": ["A"], "weight": [0.01],
                    "spatial_weight": [0.0], "prob": [1e-6], "prob_norm": [1.0],
                }
            )
        )
        out = formulator.probability_features(cands).toPandas()
        assert (out["score"] == 0.0).all()


class TestFactorFeatures:
    """Figure 4(c), Sparcle column: +0.77 / −0.77 / −1.01 for r1
    (the paper's printed '0.64+0.85' is its own typo for '0.64+0.25';
    the total 0.77 is consistent — DESIGN.md §3)."""

    def test_r1_vector(self, toy):
        _, cands = toy
        s = scores(formulator.factor_features(cands), 1)
        assert s[MAN] == pytest.approx(0.77)
        assert s[QUE] == pytest.approx(-0.77)
        assert s[SIS] == pytest.approx(-1.01)

    def test_spatial_awareness_flips_favored_value(self, toy):
        # Unweighted factors favor Queens (3 agreeing neighbors of 5);
        # weighting favors Manhattan (§5.3's point).
        _, cands = toy
        s = scores(formulator.factor_features(cands), 1)
        assert s.idxmax() == MAN

    def test_identity_with_violation_scores(self, toy):
        """factor = support − violation and support + violation = Σw of the
        cell's non-null rows, hence factor = total − 2·violation."""
        dm, cands = toy
        f = formulator.factor_features(cands).toPandas().set_index(["rid", "value"])
        v = formulator.violation_features(cands).toPandas().set_index(["rid", "value"])
        dm_pdf = dm.toPandas()
        totals = dm_pdf[dm_pdf["v2"].notna()].groupby("r1")["w"].sum()
        for (rid, value), row in f.iterrows():
            assert row["score"] == pytest.approx(
                totals[rid] - 2 * v.loc[(rid, value), "score"], abs=1e-9
            )

    def test_null_neighbors_ignored(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"rid": [1, 2, 3], "borough": ["B", None, "A"]})
        )
        dm = spark.createDataFrame(
            pd.DataFrame(
                [(1, 2, "B", None, 10.0, 0.9), (1, 3, "B", "A", 10.0, 0.5)],
                columns=["r1", "r2", "v1", "v2", "dist_m", "w"],
            )
        )
        det = detect_errors(df, dm, attribute="borough")
        cands = generate_candidates(
            df, det, attribute="borough", min_prob=0.0, max_prob=1.1
        ).candidates
        s = scores(formulator.factor_features(cands), 1)
        assert s["A"] == pytest.approx(0.5)  # the null row contributes nothing
        assert s["B"] == pytest.approx(-0.5)
        v = scores(formulator.violation_features(cands), 1)
        assert v["A"] == pytest.approx(0.0)
        assert v["B"] == pytest.approx(0.5)

    def test_cell_with_no_neighbor_rows_scores_zero(self, spark):
        """No neighbor row with weight. A cell with no neighbor row at all
        keeps only its own value, which phase 3 labels, so it never
        reaches a formulator; the reachable case is a neighbor at W = 0
        (the k-th neighbor under a kNN weight without the 0.01 floor)."""
        df = spark.createDataFrame(pd.DataFrame({"rid": [1, 2], "borough": ["A", "B"]}))
        dm = spark.createDataFrame(
            pd.DataFrame(
                [(1, 2, "A", "B", 10.0, 0.0)],
                columns=["r1", "r2", "v1", "v2", "dist_m", "w"],
            )
        )
        det = detect_errors(df, dm, attribute="borough")
        cands = generate_candidates(
            df, det, attribute="borough", min_prob=0.0, max_prob=1.1
        ).candidates
        for features in (
            formulator.factor_features,
            formulator.violation_features,
            formulator.probability_features,
        ):
            assert scores(features(cands), 1).to_dict() == {"A": 0.0, "B": 0.0}
