"""DuckDB-oracle equivalence for the core DataFrame aggregations.

The spatial joins are oracle-checked in test_range_join.py; here the
downstream relational algebra (frequency table, phase-1 weighted counts,
violation detection, violation/factor scoring) is cross-checked as SQL
over the same inputs.
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import formulator
from repro.core.candidate_gen import generate_candidates, value_frequency
from repro.core.error_detector import detect_errors
from repro.evalx.toy import TOY_DM, TOY_RECORDS, TOY_TOTAL, toy_df, toy_dm, toy_freq
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def toy_pdfs():
    return (
        pd.DataFrame(TOY_RECORDS, columns=["rid", "borough"]),
        pd.DataFrame(TOY_DM, columns=["r1", "r2", "v1", "v2", "dist_m", "w"]),
    )


class TestValueFrequencyOracle:
    def test_matches_duckdb(self, spark):
        pdf = pd.DataFrame(
            {"rid": range(8), "b": ["A", "A", "B", None, "B", "B", "C", None]}
        )
        got = value_frequency(spark.createDataFrame(pdf), "b")
        assert_equivalent(
            got,
            "SELECT b AS value, count(*) AS cnt FROM t WHERE b IS NOT NULL GROUP BY b",
            t=pdf,
        )


class TestDetectorOracle:
    def test_error_ids_match_duckdb(self, spark, toy_pdfs):
        records, dm = toy_pdfs
        det = detect_errors(toy_df(spark), toy_dm(spark), attribute="borough")
        sql = """
            SELECT DISTINCT rid FROM (
                SELECT r1 AS rid FROM dm WHERE v1 IS DISTINCT FROM v2
                UNION ALL
                SELECT r2 AS rid FROM dm WHERE v1 IS DISTINCT FROM v2
                UNION ALL
                SELECT rid FROM records WHERE borough IS NULL
            )
        """
        assert_equivalent(det.error_ids, sql, dm=dm, records=records)


class TestPhase1Oracle:
    def test_neighbor_weight_sums_match_duckdb(self, spark, toy_pdfs):
        records, dm = toy_pdfs
        df, sdm, freq = toy_df(spark), toy_dm(spark), toy_freq(spark)
        det = detect_errors(df, sdm, attribute="borough")
        res = generate_candidates(
            df, det, attribute="borough",
            freq=freq, total=TOY_TOTAL, min_prob=0.0, max_prob=1.1,
        )
        got = res.candidates.select(
            "rid", "value", F.col("spatial_weight").alias("w_sum")
        ).where(F.col("spatial_weight") > 0)
        sql = """
            WITH errors AS (
                SELECT DISTINCT rid FROM (
                    SELECT r1 AS rid FROM dm WHERE v1 IS DISTINCT FROM v2
                    UNION ALL
                    SELECT r2 AS rid FROM dm WHERE v1 IS DISTINCT FROM v2
                )
            )
            SELECT dm.r1 AS rid, dm.v2 AS value, sum(dm.w) AS w_sum
            FROM dm JOIN errors ON dm.r1 = errors.rid
            WHERE dm.v2 IS NOT NULL
            GROUP BY dm.r1, dm.v2
        """
        assert_equivalent(got, sql, dm=dm)


class TestFormulatorOracle:
    @pytest.fixture(scope="class")
    def cands(self, spark):
        df, sdm, freq = toy_df(spark), toy_dm(spark), toy_freq(spark)
        det = detect_errors(df, sdm, attribute="borough")
        return generate_candidates(
            df, det, attribute="borough",
            freq=freq, total=TOY_TOTAL, min_prob=0.0, max_prob=1.1,
        ).candidates

    def test_violation_scores_match_duckdb(self, spark, toy_pdfs, cands):
        _, dm = toy_pdfs
        cands_pdf = cands.select("rid", "value").toPandas()
        got = formulator.violation_features(cands).select("rid", "value", "score")
        sql = """
            SELECT c.rid, c.value,
                   coalesce(sum(CASE WHEN dm.v2 IS NOT NULL AND dm.v2 <> c.value
                                     THEN dm.w ELSE 0 END), 0) AS score
            FROM c LEFT JOIN dm ON dm.r1 = c.rid AND dm.v2 IS NOT NULL
            GROUP BY c.rid, c.value
        """
        assert_equivalent(got, sql, c=cands_pdf, dm=dm)

    def test_factor_scores_match_duckdb(self, spark, toy_pdfs, cands):
        _, dm = toy_pdfs
        cands_pdf = cands.select("rid", "value").toPandas()
        got = formulator.factor_features(cands).select("rid", "value", "score")
        sql = """
            SELECT c.rid, c.value,
                   coalesce(sum(CASE WHEN dm.v2 IS NULL THEN 0
                                     WHEN dm.v2 = c.value THEN dm.w
                                     ELSE -dm.w END), 0) AS score
            FROM c LEFT JOIN dm ON dm.r1 = c.rid AND dm.v2 IS NOT NULL
            GROUP BY c.rid, c.value
        """
        assert_equivalent(got, sql, c=cands_pdf, dm=dm)
