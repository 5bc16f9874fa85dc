"""svpsido benchmark: `verify` and `eval` end to end, and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; NAME is one of the workloads below, or
`all` to run each in turn.  Every pass runs in a fresh interpreter that
imports svpsido from ./src, so module-level caches start cold as they do
for every CLI call.  A verify workload makes one whole pass (longer than
10 s at the defaults); `calc` makes S // 2 seeded batches of calculator
calls, batch k of a run drawing its stream from the seed and k.  The
work of a run is thus fixed by its arguments, never by the clock, so the
same arguments give the same ops and the same failures.

Times are reported in reference seconds (see hostspeed.py): wall time
scaled by the host speed that a fixed probe, run every 100 ms beside the
work, measured at that moment.  The plain wall times are printed too.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
makes one plain pass and one traced pass and reports the per-layer
metrics, the tracing overhead among them.  Either way the outputs are
checked: verify case counts and masked text reports against
perfbench/pinned/verify.json, calculator results against the references
in perfbench/pinned/calc.json.  The last line of output is one JSON
object; the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REF_PROBE_S

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
PINNED_DIR = HERE / "pinned"
SPANS_DIR = ROOT / ".perfbench-spans"

# workload -> (suites, threads); together the three run the full default verify
VERIFY = {
    "transform": (("theta", "timeshift", "lemma26", "lemma33", "theorem51"), 1),
    "duality": (("theorem61", "poisson-lemma71", "nu-scan"), 1),
    "algebra-pooled": (("psido-axioms", "cocycles", "dpi-rep", "dsigma-rep"), 2),
}
WORKLOADS = (*VERIFY, "calc")
ALL_SUITES = tuple(s for suites, _ in VERIFY.values() for s in suites)
IMPORT_PROBES = 11
CALC_BATCH_S = 2  # seconds of --seconds per calc batch, at about reference speed
RUN_LIMIT_S = 170

FAILURE_KINDS = {
    "raised": "raised",
    "floor": "result floor above the requested floor",
    "value": "disagrees with the pinned reference on a trusted order",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("miss_share"):
        return "share"
    if name.endswith("cpu_per_wall"):
        return "s/s"
    if name.endswith("brackets_per_defect"):
        return "brackets/defect"
    return "count"


def child_env() -> dict:
    # a fixed hash seed keeps set and dict orders, hence call counts, repeatable
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def child(args: list, timeout: float) -> dict:
    """Run one worker pass in a fresh interpreter; return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# run in the probed interpreter: the clock of perf_counter is CLOCK_MONOTONIC,
# shared by all processes, so the parent can read the child's timestamp
IMPORT_CODE = """\
import time
import svpsido.cli
imported = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import hostspeed
print(imported, sorted(hostspeed.probe() for _ in range(3))[1])
"""


def import_probe() -> tuple:
    """Wall and reference time from starting an interpreter to `svpsido.cli` imported.

    The host-speed probe runs in the same interpreter right after the
    import, while the process is busy; one taken in this process, idle
    while it waits for the child, would read slow.
    """
    began = time.perf_counter()
    # no timeout: with one, subprocess polls for the exit in steps of up to 50 ms
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(HERE)], env=child_env(),
                          stdout=subprocess.PIPE, text=True, check=True)
    imported, probe_s = map(float, proc.stdout.split())
    return imported - began, (imported - began) * REF_PROBE_S / probe_s


def mask_millis(report: str) -> str:
    return re.sub(r"\(\d+ ms\)", "(N ms)", report)


def ops_in(out: dict) -> int:
    """Verified cases or evaluated expressions of one pass."""
    return out["ops"] if "ops" in out else sum(s["cases"] for s in out["suites"].values())


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    """One workload run: its passes, its checks and its metrics."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.started = time.perf_counter()
        self.problems: list = []
        self.attempted = self.failed = 0
        self.failure_kinds: dict = {}  # kind -> (count, first op)

    def left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def worker_args(self, batch: int = 0) -> list:
        if self.workload == "calc":
            return ["calc", str(PINNED_DIR / "calc.json"), f"{self.seed}/{batch}"]
        suites, threads = VERIFY[self.workload]
        return ["verify", ",".join(suites), str(threads)]

    def passes(self) -> list:
        """The run's plain passes: one, or one per calc batch of an untraced run."""
        count = 1
        if self.workload == "calc" and not self.trace:
            count = max(1, self.seconds // CALC_BATCH_S)
        return [child(self.worker_args(k), self.left()) for k in range(count)]

    def traced_pass(self) -> dict:
        SPANS_DIR.mkdir(exist_ok=True)
        out = SPANS_DIR / f"{self.workload}.spans"
        return child([*self.worker_args(), "--trace-out", str(out)], self.left())

    # ------------------------------------------------------------ checks

    def check_verify(self, out: dict) -> None:
        pinned = json.loads((PINNED_DIR / "verify.json").read_text())[self.workload]
        cases = {s: v["cases"] for s, v in out["suites"].items()}
        if cases != pinned["cases"]:
            self.problems.append(f"case counts {cases} differ from pinned {pinned['cases']}")
        if mask_millis(out["report"]) != pinned["report"]:
            self.problems.append("text report differs from the pinned report")
        self.attempted += ops_in(out)
        self.failed += sum(v["cases"] - v["passed"] for v in out["suites"].values())

    def check_calc(self, out: dict) -> None:
        for kind, ops in out["failures"].items():
            self.failed += len(ops)
            self.failure_kinds[kind] = (self.failure_kinds.get(kind, (0,))[0] + len(ops), ops[0])
            if kind == "raised":
                self.problems.append(f"{len(ops)} calculator ops raised, first: {ops[0]}")
        self.attempted += ops_in(out)

    def check(self, out: dict) -> None:
        if self.workload == "calc":
            self.check_calc(out)
        else:
            self.check_verify(out)

    # ------------------------------------------------------------ metrics

    def latencies_ms(self, passes: list, prefix: str) -> list:
        if self.workload == "calc":
            return sorted(x for p in passes for x in p[prefix + "latencies_ms"])
        # cases are not timed one by one without tracing: each case is
        # charged the mean case time of its pass
        return sorted(x for p in passes
                      for x in [1000 * p[prefix + "run_s"] / ops_in(p)] * ops_in(p))

    def times(self, passes: list, imports: list, prefix: str) -> dict:
        """The timed end-to-end metrics, in wall (prefix "") or reference seconds."""
        build = statistics.median(p.get(prefix + "build_s", 0.0) for p in passes)
        lat = self.latencies_ms(passes, prefix)
        return {
            "setup_s": statistics.median(imports) + build,
            "run_s": statistics.median(p[prefix + "run_s"] for p in passes),
            "ops_per_s": statistics.median(ops_in(p) / p[prefix + "run_s"] for p in passes),
            "op_p50_ms": percentile(lat, 0.50),
            "op_p99_ms": percentile(lat, 0.99),
        }

    def end_to_end(self, passes: list) -> tuple:
        walls, refs = zip(*(import_probe() for _ in range(IMPORT_PROBES)))
        metrics = self.times(passes, refs, "ref_")
        metrics["peak_rss_mb"] = max(resource.getrusage(who).ru_maxrss for who in
                                     (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
        wall = self.times(passes, walls, "")
        speed = statistics.median(p["probe_s"] for p in passes)
        note = (f"{len(self.latencies_ms(passes, ''))} op samples over {len(passes)} passes; "
                f"wall: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items())
                + f"; median probe {1000 * speed:.4g} ms")
        return metrics, note

    def per_layer(self, plain: dict, traced: dict) -> tuple:
        suites = plain.get("suites", {})
        metrics = {}
        for name in ALL_SUITES:
            s = suites.get(name, {"run_s": 0.0, "build_s": 0.0})
            metrics[f"suites.{name}.run_s"] = s["run_s"]
            metrics[f"suites.{name}.build_s"] = s["build_s"]
        metrics["suites.cpu_per_wall"] = plain["cpu_per_wall"]
        metrics.update(traced["layers"])
        metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        return metrics, f"{traced['spans']} spans written to {SPANS_DIR.name}/"

    def execute(self) -> dict:
        passes = self.passes()
        for out in passes:
            self.check(out)
        if self.trace:
            traced = self.traced_pass()
            self.check(traced)
            metrics, note = self.per_layer(passes[0], traced)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, note = self.end_to_end(passes)
            units = END_TO_END_UNITS
        return {"metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                "note": note}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "svpsido" / "__init__.py").is_file():
        print("perfbench: no svpsido sources in ./src; run from the repository root",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        out = run.execute()
        for key, metric in out["metrics"].items():
            value = metric["value"]
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"{name} {key} {shown} {metric['unit']}")
            label = key if len(names) == 1 else f"{name}/{key}"
            result["metrics"][label] = metric
        print(f"{name} fail_share {run.failed / run.attempted:.6g} "
              f"({run.failed} failed of {run.attempted} ops); {out['note']}")
        for kind, (count, first) in run.failure_kinds.items():
            print(f"{name} failed ops, {FAILURE_KINDS[kind]}: {count}, first: {first}")
        for problem in run.problems:
            print(f"{name} CHECK FAILED: {problem}", file=sys.stderr)
        result["correct"] = result["correct"] and not run.problems
        result["attempted"] += run.attempted
        result["failed"] += run.failed
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
