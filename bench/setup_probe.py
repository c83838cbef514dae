"""One set-up measurement in a fresh interpreter.

Times ``import arborcheck`` (with ``arborcheck.cli``) and the loading of the
first round of a workload's generated inputs into program objects, and the
calibration loop of bench/calib.py just before, then prints
{"import_s": ..., "load_s": ..., "cal_s": ...}.  run.py starts it several
times and reports the median sum, scaled by the calibration, as ``setup_s``.

    python3 bench/setup_probe.py --workload ladder --seed 1
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> None:
    workload = sys.argv[sys.argv.index("--workload") + 1]
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    import calib
    import gen  # stdlib random only; generation is not part of set-up

    docs = gen.ROUNDS[workload](seed, 0)
    cal_s = sorted(calib.spin() for _ in range(5))[2]  # median; statistics would import fractions early
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import arborcheck  # noqa: F401
    import arborcheck.cli  # noqa: F401
    t1 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](BENCH.parent / ".bench_out" / "probe")
    t2 = time.perf_counter()
    wl.load(docs)
    t3 = time.perf_counter()
    print('{"import_s": %r, "load_s": %r, "cal_s": %r}' % (t1 - t0, t3 - t2, cal_s))


if __name__ == "__main__":
    main()
