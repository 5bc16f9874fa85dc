"""One measured pass in a fresh interpreter; prints one JSON line.

    worker.py verify SUITE,SUITE,... THREADS [--trace-out FILE]
    worker.py calc POOL.json SEED/BATCH [--trace-out FILE]

`verify` makes the calls `svpsido verify` makes (VerifyConfig, run_suites,
report_text), one run_suites call per suite so that each suite's build
time shows apart from its case time.  `calc` evaluates a seeded stream of
calculator expressions from one client in a closed loop, timing each
`eval_expr` + `symbol_str` call, and checks every result afterwards.
With --trace-out the layer functions are wrapped and the spans written;
otherwise the host-speed probes of hostspeed.py run beside the pass and
every time is also given in reference seconds (the `ref_` keys).
"""

from __future__ import annotations

import json
import random
import sys
import time

from hostspeed import PERIOD_S, SpeedLog

# requested floors, in bands from shallow to deep: the stream asks for
# every expression once per band, in seeded order, at a floor the seed
# draws from the band, so each band refills the transform caches deeper
FLOOR_BANDS = (
    ("-1", "-3/2", "-2"),
    ("-5/2", "-3", "-7/2"),
    ("-4", "-9/2", "-5"),
    ("-11/2", "-6"),
)


def calc_stream(n_exprs: int, seed: str) -> list:
    """(expression index, floor text) pairs in seeded order."""
    rng = random.Random(seed)
    ops = []
    for band in FLOOR_BANDS:
        order = list(range(n_exprs))
        rng.shuffle(order)
        ops += [(i, rng.choice(band)) for i in order]
    return ops


def _tracer(argv: list):
    if "--trace-out" not in argv:
        return None, None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer, argv[argv.index("--trace-out") + 1]


def _finish(out: dict, tracer, path) -> None:
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = tracer.write(path)


def verify(argv: list) -> dict:
    suites, threads = argv[0].split(","), int(argv[1])
    from svpsido.suites import VerifyConfig, report_text, run_suites

    tracer, path = _tracer(argv)
    speed = SpeedLog()
    cfg = VerifyConfig(threads=threads)
    reports, per_suite, phases = [], {}, []
    cpu0, start = time.process_time(), time.perf_counter()
    if tracer is None:
        speed.start_timer()
    for name in suites:
        began = time.perf_counter()
        (rep,) = run_suites([name], cfg)
        ended = time.perf_counter()
        # the cases run in the last `millis` of the call, the build before them
        cases_from = ended - rep.millis / 1000
        phases += [(began, cases_from), (cases_from, ended)]
        reports.append(rep)
        per_suite[name] = {
            "cases": rep.cases,
            "passed": rep.passed,
            "run_s": ended - cases_from - speed.probe_wall_s(cases_from, ended),
            "build_s": cases_from - began - speed.probe_wall_s(began, cases_from),
        }
    report = report_text(reports)
    verdict = time.perf_counter()
    cpu_s = time.process_time() - cpu0 - sum(speed.probes)
    wall_s = verdict - start - speed.probe_wall_s(start, verdict)
    build_s = sum(s["build_s"] for s in per_suite.values())
    out = {
        "build_s": build_s,
        "run_s": wall_s - build_s,
        "cpu_per_wall": cpu_s / wall_s,
        "suites": per_suite,
        "report": report,
    }
    if tracer is None:
        speed.stop_timer()
        ref_build_s = sum(speed.reference_s(a, b) for a, b in phases[::2])
        out["ref_build_s"] = ref_build_s
        out["ref_run_s"] = speed.reference_s(start, verdict) - ref_build_s
        out["probe_s"] = speed.median_probe_s()
    _finish(out, tracer, path)
    return out


def _check(sym, req, ref, coeff_str):
    """None when the op succeeded, else the kind of failure."""
    mine = None if sym.floor is None else sym.floor.twice
    floors = [f for f in (mine, ref["floor"]) if f is not None]
    low = max(floors) if floors else None
    xname = "xi" if sym.var == "XI" else "r"
    got = {k.twice: coeff_str(c, xname) for k, c in sym.terms.items()}
    want = {int(k): v for k, v in ref["terms"].items()}
    if sym.var != ref["var"] or any(
        got.get(k, "0") != want.get(k, "0")
        for k in got.keys() | want.keys() if low is None or k >= low
    ):
        return "value"
    if mine is not None and mine > req.twice:
        return "floor"
    return None


def calc(argv: list) -> dict:
    with open(argv[0]) as fh:
        pool = json.load(fh)
    ops = calc_stream(len(pool), argv[1])
    from svpsido import textio

    tracer, path = _tracer(argv)
    speed = SpeedLog()
    results, spans = [], []
    clock = time.perf_counter
    cpu0, start = time.process_time(), clock()
    next_probe = start
    for i, floor_text in ops:
        if tracer is None and clock() >= next_probe:
            speed.sample()  # between ops, so no op's time holds a probe
            next_probe = clock() + PERIOD_S
        began = clock()
        try:
            sym = textio.eval_expr(pool[i]["expr"], floor=textio.parse_floor(floor_text))
            textio.symbol_str(sym)
        except Exception as exc:  # a raised op is a failed op, not a failed run
            sym = exc
        spans.append((began, clock()))
        results.append(sym)
    ended = clock()
    cpu_s = time.process_time() - cpu0 - sum(speed.probes)
    latencies = [b - a for a, b in spans]
    out = {"run_s": sum(latencies),
           "cpu_per_wall": cpu_s / (ended - start - speed.probe_wall_s(start, ended)),
           "latencies_ms": [x * 1000 for x in latencies], "ops": len(ops)}
    if tracer is None:
        speed.sample()
        ref = [speed.reference_s(a, b) for a, b in spans]
        out["ref_run_s"] = sum(ref)
        out["ref_latencies_ms"] = [x * 1000 for x in ref]
        out["probe_s"] = speed.median_probe_s()
    _finish(out, tracer, path)

    failures = {}
    for (i, floor_text), sym in zip(ops, results):
        if isinstance(sym, Exception):
            why = "raised"
        else:
            why = _check(sym, textio.parse_floor(floor_text), pool[i]["ref"], textio.coeff_str)
        if why is not None:
            failures.setdefault(why, []).append(f"{pool[i]['expr']} at floor {floor_text}")
    out["failures"] = failures
    return out


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    print(json.dumps(verify(args) if mode == "verify" else calc(args)))
