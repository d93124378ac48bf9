"""Spatial candidate generator (§4): the paper's Table 2, phase by phase."""
import pandas as pd
import pytest

from repro.core.candidate_gen import generate_candidates, value_frequency
from repro.core.error_detector import detect_errors
from repro.evalx.toy import MAN, QUE, SIS, TOY_TOTAL, toy_df, toy_dm, toy_freq


@pytest.fixture(scope="module")
def toy(spark):
    df, dm, freq = toy_df(spark), toy_dm(spark), toy_freq(spark)
    return df, freq, detect_errors(df, dm, attribute="borough")


@pytest.fixture(scope="module")
def full_state(spark, toy):
    """All candidates with no phase-3 pruning — the full Table 2."""
    df, freq, det = toy
    res = generate_candidates(
        df, det, attribute="borough", freq=freq, total=TOY_TOTAL,
        min_prob=0.0, max_prob=1.1,
    )
    pdf = res.candidates.toPandas()
    return pdf.set_index(["rid", "value"]).sort_index()


@pytest.fixture(scope="module")
def default_state(spark, toy):
    """Defaults MinProb=0.05, MaxProb=0.95 — the paper's §4.3 example."""
    df, freq, det = toy
    return generate_candidates(
        df, det, attribute="borough", freq=freq, total=TOY_TOTAL
    )


class TestPhase1SumWeights:
    """Table 2, third column (r5/S.Island corrected per DESIGN.md typo note)."""

    @pytest.mark.parametrize(
        "rid,value,weight",
        [
            (1, MAN, 0.89), (1, QUE, 0.12), (1, SIS, 0.01),
            (2, MAN, 0.16), (2, QUE, 0.01), (2, SIS, 0.64),
            (3, MAN, 0.16), (3, SIS, 0.25),
            (4, MAN, 0.01), (4, QUE, 0.16), (4, SIS, 0.04),
            (5, QUE, 0.33), (5, SIS, 0.04),
            (6, QUE, 0.16), (6, SIS, 0.04),
        ],
    )
    def test_sum_weights(self, full_state, rid, value, weight):
        assert full_state.loc[(rid, value), "weight"] == pytest.approx(weight, abs=1e-9)

    def test_candidate_counts(self, full_state):
        counts = full_state.groupby("rid").size().to_dict()
        assert counts == {1: 3, 2: 3, 3: 2, 4: 3, 5: 2, 6: 2}

    def test_own_value_default_only_when_unsupported(self, full_state):
        # r1's own S.Island has no nearby support → default 0.01, spatial 0;
        # r2's own Manhattan is neighbor-supported → summed, spatial > 0.
        assert full_state.loc[(1, SIS), "spatial_weight"] == 0.0
        assert full_state.loc[(2, MAN), "spatial_weight"] == pytest.approx(0.16)

    def test_clean_cell_r7_absent(self, full_state):
        assert 7 not in full_state.index.get_level_values("rid")


class TestPhase2Probabilities:
    """Table 2, sixth column (probability = spatial term × id factor)."""

    @pytest.mark.parametrize(
        "rid,value,prob",
        [
            (1, MAN, 89 / 300_000_000), (1, QUE, 1 / 25_000_000), (1, SIS, 1 / 10_000_000),
            (2, MAN, 1 / 1_875_000), (2, QUE, 1 / 300_000_000), (2, SIS, 1 / 1_562_500),
            (3, MAN, 1 / 1_875_000), (3, SIS, 1 / 4_000_000),
            (4, MAN, 1 / 300_000_000), (4, QUE, 1 / 1_875_000), (4, SIS, 1 / 25_000_000),
            (5, QUE, 11 / 10_000_000),
            (6, QUE, 1 / 1_875_000), (6, SIS, 1 / 25_000_000),
        ],
    )
    def test_probability(self, full_state, rid, value, prob):
        assert full_state.loc[(rid, value), "prob"] == pytest.approx(prob, rel=1e-6)

    @pytest.mark.parametrize(
        "rid,value,norm",
        [
            (1, MAN, 0.68), (1, QUE, 0.09), (1, SIS, 0.23),
            (2, MAN, 0.45), (2, SIS, 0.54),
            (3, MAN, 0.68), (3, SIS, 0.32),
            (4, QUE, 0.92), (4, SIS, 0.07),
            (6, QUE, 0.93), (6, SIS, 0.07),
        ],
    )
    def test_normalized_matches_paper_to_2dp(self, full_state, rid, value, norm):
        assert full_state.loc[(rid, value), "prob_norm"] == pytest.approx(norm, abs=0.005)

    def test_normalization_sums_to_one(self, full_state):
        sums = full_state.groupby("rid")["prob_norm"].sum()
        assert sums.values == pytest.approx([1.0] * len(sums))


class TestPhase3Cutoffs:
    def test_minprob_drops_marginal_candidates(self, default_state):
        """§4.3: MinProb=0.05 excludes Queens from r2, Manhattan from r4,
        and S.Island from r5."""
        kept = set(
            map(tuple, default_state.candidates.toPandas()[["rid", "value"]].values)
        )
        assert (2, QUE) not in kept
        assert (4, MAN) not in kept
        # r5 is labeled clean so none of its candidates remain listed.
        assert not {t for t in kept if t[0] == 5}

    def test_maxprob_labels_r5_queens(self, default_state):
        labels = {r.rid: r.label for r in default_state.labels.collect()}
        assert labels == {5: QUE}

    def test_remaining_error_ids(self, default_state):
        labeled = {r.rid for r in default_state.labels.collect()}
        unresolved = {r.rid for r in default_state.candidates.collect()}
        assert labeled == {5}
        assert unresolved == {1, 2, 3, 4, 6}
        assert not labeled & unresolved

    def test_labels_and_candidates_reuse_the_cached_kept_frame(self, default_state):
        """Both views are read from ``kept``: once it is cached, neither
        recomputes Algorithm 2."""
        kept = default_state.kept.cache()
        try:
            for view in (default_state.candidates, default_state.labels):
                plan = view._jdf.queryExecution().optimizedPlan().toString()
                assert "InMemoryRelation" in plan
        finally:
            kept.unpersist()

    def test_surviving_candidate_counts(self, default_state):
        counts = (
            default_state.candidates.toPandas().groupby("rid").size().to_dict()
        )
        assert counts == {1: 3, 2: 2, 3: 2, 4: 2, 6: 2}

    def test_single_candidate_cell_gets_labeled(self, spark):
        # r3 (B) names r1 as its neighbor, which flags r1; r1's only
        # candidate is the A it shares with r2. r3 keeps two candidates.
        df = spark.createDataFrame(
            pd.DataFrame({"rid": [1, 2, 3], "borough": ["A", "A", "B"]})
        )
        dm = spark.createDataFrame(
            pd.DataFrame(
                [
                    (1, 2, "A", "A", 10.0, 0.9), (2, 1, "A", "A", 10.0, 0.9),
                    (3, 1, "B", "A", 10.0, 0.5),
                ],
                columns=["r1", "r2", "v1", "v2", "dist_m", "w"],
            )
        )
        det = detect_errors(df, dm, attribute="borough")
        res = generate_candidates(df, det, attribute="borough", max_prob=2.0)
        labels = {r.rid: r.label for r in res.labels.collect()}
        assert labels == {1: "A"}  # single candidate wins even below MaxProb


class TestNullAndDefaults:
    def test_null_original_has_no_own_candidate(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"rid": [1, 2], "borough": [None, "A"]})
        )
        dm = spark.createDataFrame(
            pd.DataFrame(
                [(1, 2, None, "A", 10.0, 0.5), (2, 1, "A", None, 10.0, 0.5)],
                columns=["r1", "r2", "v1", "v2", "dist_m", "w"],
            )
        )
        det = detect_errors(df, dm, attribute="borough")
        res = generate_candidates(df, det, attribute="borough", max_prob=2.0)
        cands = res.candidates.toPandas()
        labeled = res.labels.toPandas()
        got = set(cands["value"]) | set(labeled["label"])
        assert got == {"A"}  # only the neighbor's value, no null own-candidate

    def test_null_neighbors_contribute_no_candidates(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"rid": [1, 2], "borough": ["A", None]})
        )
        dm = spark.createDataFrame(
            pd.DataFrame(
                [(1, 2, "A", None, 10.0, 0.5), (2, 1, None, "A", 10.0, 0.5)],
                columns=["r1", "r2", "v1", "v2", "dist_m", "w"],
            )
        )
        det = detect_errors(df, dm, attribute="borough")
        res = generate_candidates(df, det, attribute="borough", max_prob=2.0)
        vals = set(res.candidates.toPandas()["value"]) | set(
            res.labels.toPandas()["label"]
        )
        assert vals == {"A"}  # own value only, at the default weight

    def test_error_cell_with_no_candidates_stays_unresolved(self, spark):
        # Null value and no neighbors: nothing to propose.
        df = spark.createDataFrame(
            pd.DataFrame({"rid": [1], "borough": [None]})
        )
        dm = spark.createDataFrame(
            [], schema="r1 long, r2 long, v1 string, v2 string, dist_m double, w double"
        )
        det = detect_errors(df, dm, attribute="borough")
        res = generate_candidates(df, det, attribute="borough")
        assert res.candidates.count() == 0
        assert res.labels.count() == 0

    def test_zero_weight_cell_is_dropped(self, spark):
        # r1's only neighbor shares its value at W = 0 (the k-th neighbor
        # of an unfloored kNN weight): every candidate has probability 0,
        # so there is no distribution to normalise and MinProb drops all.
        df = spark.createDataFrame(
            pd.DataFrame({"rid": [1, 2, 3], "borough": ["A", "A", "B"]})
        )
        dm = spark.createDataFrame(
            pd.DataFrame(
                [(1, 2, "A", "A", 10.0, 0.0), (3, 1, "B", "A", 5.0, 0.5)],
                columns=["r1", "r2", "v1", "v2", "dist_m", "w"],
            )
        )
        det = detect_errors(df, dm, attribute="borough")
        res = generate_candidates(df, det, attribute="borough", min_prob=0.0)
        assert {r.rid for r in res.kept.collect()} == {3}


class TestValueFrequency:
    def test_counts(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"rid": [1, 2, 3, 4], "b": ["A", "A", "B", None]})
        )
        got = {r.value: r.cnt for r in value_frequency(df, "b").collect()}
        assert got == {"A": 2, "B": 1}  # nulls excluded

    def test_statistics_defaults_used_when_not_overridden(self, spark):
        # Without freq/total overrides the module computes them from df;
        # with a uniform df the normalised output must still sum to 1.
        df = spark.createDataFrame(
            pd.DataFrame({"rid": [1, 2, 3], "b": ["A", "B", "A"]})
        )
        dm = spark.createDataFrame(
            pd.DataFrame(
                [(1, 2, "A", "B", 10.0, 0.5), (1, 3, "A", "A", 20.0, 0.3)],
                columns=["r1", "r2", "v1", "v2", "dist_m", "w"],
            )
        )
        det = detect_errors(df, dm, attribute="b")
        res = generate_candidates(df, det, attribute="b", min_prob=0.0, max_prob=1.1)
        pdf = res.candidates.toPandas()
        assert pdf["prob_norm"].sum() == pytest.approx(1.0)

