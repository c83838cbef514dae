"""arborcheck benchmark: one process, one thread, closed loop.

    python3 bench/run.py --workload ladder --seed 1 --seconds 24 --trace 0

Workloads (inputs are generated from --seed by bench/gen.py):
  ladder    `arborcheck brackets g.json` through cli.main on distinct chains,
            cycles and multigraphs, n = 12..40: the inversion kernel and JSON
            emission of n^2 rationals; the bracket cache never hits.
  corpus    fuzz-style invariant sweep over one small multigraph (n <= 8) per
            op: structure lookups (separation, BVT paths, adjacency) dominate.
  families  theorem check, rho tree hull and 4-point check on families of
            8..14 vertices of a few reused graphs (n = 24..32): the O(k^4)
            exact 4-point work; the read path of the bracket cache.
  descent   same-edge quasi-monomial brackets, u_lambda and valuation 4-point
            reports: one satellite blow-up and re-validation per unit of
            partial quotient; every model is new (the write path).

An op is timed alone; generation, loading, the calibration loop
(bench/calib.py) and the exact checks of its outputs (bench/workloads.py,
bench/exact.py) run outside the timed window.  The end-to-end timings are
scaled by the calibration loop timed beside them; the measured values are
printed too.
The run goes round by round until --seconds of op time and at least
MIN_OPS ops are done.  Round 0 is the trace window: its canonical outputs
give the digest, pinned for DEFAULT_SEED.

--trace 0 prints the end-to-end metrics; --trace 1 replays round 0,
alternately untraced and traced (bench/tracer.py) with the bracket cache
cleared before each pass, and prints the per-layer metrics.  The last line
of stdout is the JSON result; the lines before it repeat every figure with
its unit, the digest, the host reference loop and any failure with a
command that reproduces it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calib import CAL_LOOP, CAL_NOMINAL_S, spin

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

DEFAULT_SEED = 1
MIN_OPS = 100  # at least 10 ops beyond the nearest-rank p90
SETUP_PROBES = 9  # spread over the run, so their median spans the host's speed regimes
REF_LOOP = 1_000_000

# SHA-256 of round 0's canonical outputs at DEFAULT_SEED; any exact
# implementation of the paper's statements reproduces them.
PINNED_DIGESTS = {
    "ladder": "49645fc7c61606dc5cef0328680f8f3ec689d268b7a2a46a1c500e0ba755d82f",
    "corpus": "614433539f63cf7635b6705275ddf166fce27380e872bf32a2d58b08bf4a94d5",
    "families": "edec307f9a6b5d3b142cd18269041e358c17bdd3c59b8e77f638461e0620df59",
    "descent": "b6333320f04f8f0d8f0f8452e0f7184a8655e3a1dc9c769de33968dc10a10a1a",
}

TRACED_FUNCTIONS = (
    "lattice.brackets", "lattice.crucial_check", "lattice.q_value", "lattice.invert_positive_definite",
    "dualgraph.validate", "dualgraph.blowup", "dualgraph.separates", "dualgraph.graph_from_json",
    "dualgraph.leading_minors_fraction_free",
    "bricks.block_decomposition", "bricks.brick_vertex_tree", "bricks.hull_valency_report",
    "bricks.tree_separates",
    "treemetric.ultram_theorem_check", "treemetric.tree_hull", "treemetric.four_point_check",
    "treemetric.rho_metric", "treemetric.u_L_table",
    "valuation.val_bracket", "valuation.val_fourpoint", "valuation.u_lambda",
    "valuation.noud_counterexample",
    "cli.main",
)
LAYERS = ("dualgraph", "lattice", "bricks", "treemetric", "valuation", "cli")
COUNTERS = {
    "lattice.brackets.misses": "count",
    "lattice.brackets.hit_ratio": "ratio",
    "lattice.entry_bits_max": "bits",
    "lattice.matrix_n_max": "count",
    "treemetric.quadruples": "count",
    "valuation.blowups_per_bracket": "count",
    "cli.bytes_out": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for fn in TRACED_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTERS)
    units["trace.overhead_frac"] = "ratio"
    units["host.ref_s"] = "s"
    return units


def import_program():
    """Import arborcheck from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import arborcheck
    except ImportError as exc:
        sys.exit(f"bench: cannot import arborcheck from {SRC}: {exc}")
    if Path(arborcheck.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: imported arborcheck from {arborcheck.__file__}, not from {SRC}")
    return arborcheck


def host_ref_s() -> float:
    """The calibration loop at REF_LOOP iterations, before and after the run:
    host speed beside every result.  This figure scales nothing."""
    return spin(REF_LOOP)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter (bench/setup_probe.py), as
    measured and scaled by the calibration loop timed in that interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = probe["import_s"] + probe["load_s"]
    return raw, raw * CAL_NOMINAL_S / probe["cal_s"]


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


class Runner:
    def __init__(self, workload: str, seed: int):
        import gen
        import workloads

        self.name = workload
        self.seed = seed
        self.gen = gen.ROUNDS[workload]
        self.wl = workloads.WORKLOADS[workload](WORK)
        self.failures: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def load(self, rnd: int) -> list:
        return self.wl.load(self.gen(self.seed, rnd))

    def run_op(self, rnd: int, j: int, item, texts: list[str] | None):
        """Time one op, then check it; returns (seconds, output or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.run(item)
        except Exception as exc:  # a failed op is recorded, the run goes on
            self.failed += 1
            self.fail(rnd, j, exc)
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        try:
            text = self.wl.check(item, out)
        except Exception as exc:
            self.failed += 1
            self.fail(rnd, j, exc)
            return dt, None
        if texts is not None:
            texts.append(f"{j}|{text}")
        return dt, out

    def fail(self, rnd: int, j: int, exc: Exception) -> None:
        """Record a failure; j < 0 marks a check of the whole run, not of one op."""
        op = f"{rnd}.{j}" if j >= 0 else "-"
        repro = f"python3 bench/run.py --workload {self.name} --seed {self.seed}"
        self.failures.append({
            "seed": self.seed,
            "op": op,
            "error": f"{type(exc).__name__}: {exc}".splitlines()[0][:300],
            "repro": repro + (f" --op {op}" if j >= 0 else ""),
        })

    # -- untraced run: end-to-end metrics --------------------------------

    def plain(self, seconds: float) -> tuple[dict, str]:
        from arborcheck import lattice

        lattice.brackets.cache_clear()
        raw: list[float] = []  # op seconds as measured
        scaled: list[float] = []  # op seconds scaled by the round's calibration
        cal_rounds: list[float] = []
        timed = 0.0
        digest = ""
        rnd = 0
        peak_rss = 0.0
        setups: list[tuple[float, float]] = []
        while rnd == 0 or timed < seconds or len(raw) < MIN_OPS:
            while len(setups) < SETUP_PROBES * min(1.0, timed / seconds):
                setups.append(measure_setup(self.name, self.seed))
            items = self.load(rnd)
            texts: list[str] | None = [] if rnd == 0 else None
            # calibration before every op and after the last (bench/calib.py)
            cal = [spin()]
            times = []
            for j, item in enumerate(items):
                times.append(self.run_op(rnd, j, item, texts)[0])
                cal.append(spin())
            cal_rounds.append(statistics.median(cal))
            raw += times
            scaled += [dt * CAL_NOMINAL_S / cal_rounds[-1] for dt in times]
            timed += sum(times)
            if texts is not None:
                digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
            rnd += 1
            if len(raw) - len(items) < MIN_OPS:
                # peak over the fixed work of the rounds up to MIN_OPS ops, so a
                # faster program that fits more rounds in the run is not charged
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setups) < SETUP_PROBES:
            setups.append(measure_setup(self.name, self.seed))
        print("# setup_s samples, measured: " + " ".join(f"{r:.4f}" for r, _ in setups))
        print("# setup_s samples, scaled:   " + " ".join(f"{c:.4f}" for _, c in setups))
        summaries = {}
        for kind, values in (("measured", raw), ("scaled", scaled)):
            values.sort()
            summaries[kind] = {
                "ops_per_s": len(values) / sum(values),
                "op_p50_ms": 1000 * statistics.median(values),
                "op_p90_ms": 1000 * nearest_rank(values, 0.9),
            }
        measured = summaries["measured"]
        print(f"# ops {len(raw)} in {rnd} rounds, {timed:.3f} s of op time; measured, not scaled: "
              + ", ".join(f"{k} {v:.4f}" for k, v in measured.items())
              + f", setup_s {statistics.median(r for r, _ in setups):.4f}")
        print(f"# calibration loop ({CAL_LOOP} iterations), median per round: "
              f"min {1000 * min(cal_rounds):.3f} ms, median {1000 * statistics.median(cal_rounds):.3f} ms, "
              f"max {1000 * max(cal_rounds):.3f} ms; nominal {1000 * CAL_NOMINAL_S:.3f} ms")
        metrics = dict(summaries["scaled"])
        metrics["setup_s"] = statistics.median(c for _, c in setups)
        metrics["peak_rss_mib"] = peak_rss
        return metrics, digest

    # -- traced run: per-layer metrics -----------------------------------

    def traced(self, seconds: float) -> tuple[dict, str]:
        from arborcheck import lattice

        import tracer as tracing

        tracer = tracing.Tracer()
        cache = lattice.brackets
        items = self.load(0)
        self_s: dict[str, list[float]] = {}
        overheads: list[float] = []
        first: dict | None = None
        digests: set[str] = set()
        spent = 0.0
        passes = 0
        while passes == 0 or spent < seconds:
            cache.cache_clear()
            plain_s = sum(self.run_op(0, j, item, None)[0] for j, item in enumerate(items))
            cache.cache_clear()
            texts: list[str] = []
            extra: dict[str, int] = {}
            tracer.install()
            tracer.keep_spans = passes == 0
            traced_s = 0.0
            try:
                for j, item in enumerate(items):
                    tracer.op_id = f"0.{j}"
                    dt, out = self.run_op(0, j, item, texts)
                    traced_s += dt
                    for key, value in (self.wl.counters(out) if out is not None else {}).items():
                        extra[key] = extra.get(key, 0) + value
            finally:
                tracer.uninstall()
            info = cache.cache_info()
            counts = self._counters(tracer, info, extra)
            if first is None:
                first = counts
                tracer.write_spans(WORK / f"spans-{self.name}-seed{self.seed}.csv")
            elif counts != first:
                self.fail(0, -1, AssertionError("per-layer counters differ between passes of round 0"))
            digests.add(hashlib.sha256("\n".join(texts).encode()).hexdigest())
            for key, value in self._self_times(tracer).items():
                self_s.setdefault(key, []).append(value)
            overheads.append(traced_s / plain_s - 1)
            spent += plain_s + traced_s
            passes += 1
        if len(digests) != 1:
            self.fail(0, -1, AssertionError("round 0 outputs differ between passes"))
        metrics = dict(first)
        for key, values in self_s.items():
            metrics[key] = statistics.median(values)
        metrics["trace.overhead_frac"] = statistics.median(overheads)
        print(f"# {passes} untraced/traced passes over {len(items)} ops of round 0")
        return metrics, min(digests)

    @staticmethod
    def _counters(tracer, info, extra: dict) -> dict:
        counts = {f"{fn}.calls": tracer.stats[fn][0] if fn in tracer.stats else 0 for fn in TRACED_FUNCTIONS}
        lookups = info.hits + info.misses
        counts["lattice.brackets.misses"] = info.misses
        counts["lattice.brackets.hit_ratio"] = info.hits / lookups if lookups else 0.0
        counts["lattice.entry_bits_max"] = tracer.counts["lattice.entry_bits_max"]
        counts["lattice.matrix_n_max"] = tracer.counts["lattice.matrix_n_max"]
        counts["treemetric.quadruples"] = tracer.counts["treemetric.quadruples"]
        brackets_called = counts["valuation.val_bracket.calls"]
        counts["valuation.blowups_per_bracket"] = (
            tracer.counts["valuation.blowups_in_val_bracket"] / brackets_called if brackets_called else 0.0)
        counts["cli.bytes_out"] = extra.get("cli.bytes_out", 0)
        return counts

    @staticmethod
    def _self_times(tracer) -> dict[str, float]:
        out = {f"{fn}.self_s": tracer.stats[fn][1] if fn in tracer.stats else 0.0 for fn in TRACED_FUNCTIONS}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v[1] for k, v in tracer.stats.items() if k.split(".")[0] == layer)
        return out

    # -- one op, for a failure's repro command ---------------------------

    def repro(self, op: str) -> int:
        rnd, j = (int(x) for x in op.split("."))
        item = self.load(rnd)[j]
        try:
            out = self.wl.run(item)
            print(self.wl.check(item, out))
        except Exception:
            traceback.print_exc()
            return 1
        print(f"op {op} of {self.name} at seed {self.seed}: ok")
        return 0


def golden_ok() -> bool:
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from arborcheck import cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(["golden"]) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="arborcheck benchmark")
    parser.add_argument("--workload", required=True, choices=("ladder", "corpus", "families", "descent"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--op", metavar="ROUND.INDEX", help="run and check one op, then exit")
    args = parser.parse_args(argv)

    wall0 = time.perf_counter()
    import_program()
    WORK.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed)
    if args.op:
        return runner.repro(args.op)

    ref_before = host_ref_s()
    if not golden_ok():
        runner.fail(-1, -1, AssertionError("cli.main(['golden']) did not return 0"))
    if args.trace:
        metrics, digest = runner.traced(args.seconds)
        units = per_layer_units()
    else:
        metrics, digest = runner.plain(args.seconds)
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}
    ref_after = host_ref_s()
    metrics["host.ref_s"] = (ref_before + ref_after) / 2

    pinned = PINNED_DIGESTS[args.workload] if args.seed == DEFAULT_SEED else None
    if pinned not in (None, digest):
        runner.fail(0, -1, AssertionError(f"digest {digest} != pinned {pinned}"))
    failed = runner.failed
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    verdict = "not pinned for this seed" if pinned is None else "pinned: " + ("match" if pinned == digest else "MISMATCH")
    print(f"# digest {digest} ({verdict})")
    print(f"# host.ref_s before {ref_before:.4f} after {ref_after:.4f}; wall {time.perf_counter() - wall0:.1f} s")
    print(f"# error_rate {failed / runner.attempted:.6f} ({failed} failed of {runner.attempted})")
    for f in runner.failures:
        print(f"# FAIL seed={f['seed']} op={f['op']} {f['error']} | repro: {f['repro']}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
