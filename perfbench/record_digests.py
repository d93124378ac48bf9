"""Record the reference repair-set digests that run.py checks calls against.

    python3 perfbench/record_digests.py --workload austin-zipcode --seeds 0-24,101,9101

Cleans each seed's table once, in one local Spark JVM, and stores the
digest of its sorted repair set in ``digests.json``. Run it only at a
commit whose repairs are known good: a later change that alters any
repair makes run.py report the calls as failed.
"""
import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import session  # noqa: E402
from run import DIGESTS, WORK  # noqa: E402
from workloads import WORKLOADS, repair_digest  # noqa: E402


def seed_list(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seeds", required=True, help="e.g. 0-24,101")
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    confs = session.configure(WORK)
    spark = None
    try:
        for seed in seed_list(args.seeds):
            # A fresh session per seed: a session that has run many calls slows down.
            if spark is not None:
                spark.stop()
            spark = session.start(confs)
            digest = repair_digest(w.clean_table(w.to_spark(spark, w.inputs(seed)).cache()))
            recorded = json.loads(DIGESTS.read_text())
            recorded.setdefault(w.name, {})[str(seed)] = digest
            recorded[w.name] = dict(sorted(recorded[w.name].items(), key=lambda kv: int(kv[0])))
            DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
            print(seed, digest, flush=True)
    finally:
        session.shutdown(spark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
