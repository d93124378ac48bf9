"""Host correctors (AimNet / HoloClean substrates) and the Baran system."""
import numpy as np
import pandas as pd
import pytest

from repro.core import formulator
from repro.core.candidate_gen import generate_candidates
from repro.core.error_detector import detect_errors
from repro.evalx.toy import MAN, QUE, TOY_TOTAL, toy_df, toy_dm, toy_freq
from repro.hostsys.baran import baran_clean
from repro.hostsys.corrector import argbest


def _mk(spark, rows, cols, schema=None):
    return spark.createDataFrame(pd.DataFrame(rows, columns=cols), schema=schema)


SCORED_COLS = ["rid", "value", "score", "prob_norm", "labeled"]


class TestArgBest:
    def test_argmin_violations(self, spark):
        scored = _mk(spark, [(1, "A", 0.5, 0.6, False), (1, "B", 0.2, 0.4, False)], SCORED_COLS)
        out = argbest(scored, lower_is_better=True).collect()
        assert [(r.rid, r.repair) for r in out] == [(1, "B")]

    def test_argmax_factors(self, spark):
        scored = _mk(spark, [(1, "A", -0.5, 0.6, False), (1, "B", 0.2, 0.4, False)], SCORED_COLS)
        out = argbest(scored, lower_is_better=False).collect()
        assert [(r.rid, r.repair) for r in out] == [(1, "B")]

    def test_tie_breaks_by_probability(self, spark):
        scored = _mk(spark, [(1, "A", 0.3, 0.2, False), (1, "B", 0.3, 0.8, False)], SCORED_COLS)
        out = argbest(scored, lower_is_better=True).collect()
        assert [(r.rid, r.repair) for r in out] == [(1, "B")]

    def test_full_tie_breaks_by_value(self, spark):
        scored = _mk(spark, [(1, "B", 0.3, 0.5, False), (1, "A", 0.3, 0.5, False)], SCORED_COLS)
        out = argbest(scored, lower_is_better=False).collect()
        assert [(r.rid, r.repair) for r in out] == [(1, "A")]

    def test_one_repair_per_cell(self, spark):
        scored = _mk(
            spark,
            [
                (1, "A", 0.1, 0.5, False), (1, "B", 0.9, 0.5, False),
                (2, "A", 0.9, 0.5, False), (2, "B", 0.1, 0.5, False),
            ],
            SCORED_COLS,
        )
        out = argbest(scored, lower_is_better=True).toPandas()
        assert dict(zip(out["rid"], out["repair"])) == {1: "A", 2: "B"}

    def test_labeled_cell_keeps_its_top_candidate(self, spark):
        """A labeled cell takes its most probable candidate whatever the score."""
        scored = _mk(
            spark,
            [
                (1, "A", 0.9, 0.97, True), (1, "B", 0.1, 0.03, True),
                (2, "A", 0.9, 0.6, False), (2, "B", 0.1, 0.4, False),
            ],
            SCORED_COLS,
        )
        out = argbest(scored, lower_is_better=True).toPandas()
        assert dict(zip(out["rid"], out["repair"])) == {1: "A", 2: "B"}


class TestToyRepair:
    def test_aimnet_repairs_r1_to_manhattan(self, spark):
        df, dm, freq = toy_df(spark), toy_dm(spark), toy_freq(spark)
        det = detect_errors(df, dm, attribute="borough")
        res = generate_candidates(
            df, det, attribute="borough", freq=freq, total=TOY_TOTAL
        )
        feats = formulator.violation_features(res.kept)
        out = argbest(feats, lower_is_better=True).toPandas()
        assert dict(zip(out["rid"], out["repair"]))[1] == MAN
        assert dict(zip(out["rid"], out["repair"]))[5] == QUE  # r5's phase-3 label

    def test_factor_graph_repairs_r1_to_manhattan(self, spark):
        df, dm, freq = toy_df(spark), toy_dm(spark), toy_freq(spark)
        det = detect_errors(df, dm, attribute="borough")
        res = generate_candidates(
            df, det, attribute="borough", freq=freq, total=TOY_TOTAL
        )
        feats = formulator.factor_features(res.kept)
        out = argbest(feats, lower_is_better=False).toPandas()
        assert dict(zip(out["rid"], out["repair"]))[1] == MAN


class TestBaran:
    @staticmethod
    def _dataset():
        """10 base records; 3 duplicated-location errors, 1 new-location
        error, 1 null at a duplicated location."""
        g = np.random.default_rng(7)
        base = pd.DataFrame(
            {
                "rid": np.arange(10),
                "lat": g.uniform(41.8, 41.9, 10),
                "lon": g.uniform(-87.7, -87.6, 10),
                "ward": ["A"] * 5 + ["B"] * 5,
            }
        )
        errs = pd.DataFrame(
            {
                "rid": [10, 11, 12, 13, 14],
                # 10–12 sit exactly on records 0–2 (ward A), 13 on record 5 (B),
                # 14 at a brand-new location.
                "lat": list(base["lat"][:3]) + [base["lat"][5], 41.95],
                "lon": list(base["lon"][:3]) + [base["lon"][5], -87.55],
                "ward": ["B", "B", "B", None, "A"],
            }
        )
        return pd.concat([base, errs], ignore_index=True)

    def test_duplicated_location_errors_repaired(self):
        res = baran_clean(self._dataset(), attribute="ward")
        fixes = dict(zip(res.repairs["rid"], res.repairs["repair"]))
        assert fixes.get(10) == "A" and fixes.get(11) == "A" and fixes.get(12) == "A"

    def test_null_at_duplicated_location_filled(self):
        res = baran_clean(self._dataset(), attribute="ward")
        fixes = dict(zip(res.repairs["rid"], res.repairs["repair"]))
        assert fixes.get(13) == "B"

    def test_new_location_error_not_repaired(self):
        res = baran_clean(self._dataset(), attribute="ward")
        assert 14 not in set(res.repairs["rid"])

    def test_detection_counts(self):
        res = baran_clean(self._dataset(), attribute="ward")
        # Conflicting co-located pairs {0,10}, {1,11}, {2,12} flag 6 cells,
        # plus the null cell 13; the new-location error 14 goes undetected.
        assert res.n_detected == 7
        assert res.n_models == 3

    def test_clean_data_no_repairs(self):
        g = np.random.default_rng(8)
        pdf = pd.DataFrame(
            {
                "rid": np.arange(20),
                "lat": g.uniform(41.8, 41.9, 20),
                "lon": g.uniform(-87.7, -87.6, 20),
                "ward": ["A"] * 20,
            }
        )
        res = baran_clean(pdf, attribute="ward")
        assert len(res.repairs) == 0 and res.n_detected == 0

    def test_deterministic(self):
        a = baran_clean(self._dataset(), attribute="ward").repairs
        b = baran_clean(self._dataset(), attribute="ward").repairs
        pd.testing.assert_frame_equal(
            a.sort_values("rid").reset_index(drop=True),
            b.sort_values("rid").reset_index(drop=True),
        )
