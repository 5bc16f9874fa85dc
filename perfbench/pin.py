"""Regenerate the pinned data the benchmark checks results against.

    python3 perfbench/pin.py          (from the repository root)

Writes perfbench/pinned/calc.json (the calculator expression pool with a
reference result for each expression, computed at a floor far below
every floor the stream requests) and perfbench/pinned/verify.json (per
verify workload: the case count of each suite and the text report with
its "(N ms)" fields masked).  Run it only when a change is meant to alter
these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import run

POOL_SEED = 0
REF_FLOOR = "-14"
CROSS_FLOOR = "-16"  # a second fresh computation the reference must agree with
# the cold-cache floor defect of the transform round trip, kept in the pool
# on purpose so that fixing it shows in the failure count
DEFECT_CASE = "theta_inv(theta(xi^-3*d_xi^3))"
VARS = ("r", "xi")


def _power(base: str, e) -> str:
    return base if e == 1 else f"{base}^{e}"


def _monomial(rng: random.Random, var: str) -> str:
    """c * t^p * var^q * d_var^k: normal-ordered, hence an exact symbol."""
    coeff = rng.choice(("", "2", "-1", "1/2", "3*i", "M", "(1+i)", "-3/4*M"))
    p = rng.choice((0, 0, 1, 2, -1))
    q = rng.choice((-3, -2, -1, 0, 1, 2, 3))
    k = Fraction(rng.choice(range(-4, 7)), 2) if var == "xi" else rng.choice(range(-3, 4))
    factors = [coeff] if coeff else []
    if p:
        factors.append(_power("t", p))
    if q:
        factors.append(_power(var, q))
    if k:
        factors.append(_power(f"d_{var}", k))
    return "*".join(factors) or "1"


def _poly(rng: random.Random, var: str) -> str:
    text = _monomial(rng, var)
    for _ in range(rng.choice((0, 0, 1, 2))):
        text += rng.choice((" + ", " - ")) + _monomial(rng, var)
    return text


def pool_expressions() -> list:
    """Calculator calls whose arguments are all exact symbols."""
    rng = random.Random(POOL_SEED)
    exprs = [DEFECT_CASE]
    exprs += [f"theta({_poly(rng, 'xi')})" for _ in range(20)]
    exprs += [f"theta_inv({_poly(rng, 'r')})" for _ in range(25)]
    exprs += [f"theta_inv(theta({_poly(rng, 'xi')}))" for _ in range(24)]
    for _ in range(25):
        v = rng.choice(VARS)
        exprs.append(f"mul({_poly(rng, v)}, {_poly(rng, v)})")
    for _ in range(20):
        v = rng.choice(VARS)
        exprs.append(f"bracket({_poly(rng, v)}, {_poly(rng, v)})")
    exprs += [f"trace({_poly(rng, rng.choice(VARS))})" for _ in range(10)]
    exprs += [f"dpart({_poly(rng, rng.choice(VARS))})" for _ in range(10)]
    exprs += [f"theta({_poly(rng, 'xi')})*theta({_poly(rng, 'xi')})" for _ in range(15)]
    return exprs


def reference(expr: str, floor: str) -> dict:
    """The result of one expression, computed first thing in a fresh process.

    A fresh process matters: the seed's inverse-image cache can return
    wrong low-order terms after a shallow request is refilled deeper.
    """
    code = (
        "import json, sys\n"
        "from svpsido.textio import coeff_str, eval_expr, parse_floor\n"
        "s = eval_expr(sys.argv[1], floor=parse_floor(sys.argv[2]))\n"
        "x = 'xi' if s.var == 'XI' else 'r'\n"
        "print(json.dumps({'var': s.var, 'floor': None if s.floor is None else s.floor.twice,"
        " 'terms': {str(k.twice): coeff_str(c, x) for k, c in s.terms.items()}}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, expr, floor], env=run.child_env(),
                          stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def _agree(a: dict, b: dict) -> bool:
    floors = [f for f in (a["floor"], b["floor"]) if f is not None]
    low = max(floors) if floors else None
    keys = a["terms"].keys() | b["terms"].keys()
    return a["var"] == b["var"] and all(
        a["terms"].get(k, "0") == b["terms"].get(k, "0")
        for k in keys if low is None or int(k) >= low
    )


def pin_calc(path: Path) -> None:
    from svpsido.textio import eval_expr, parse_floor

    from worker import FLOOR_BANDS

    floors = [parse_floor(f) for band in FLOOR_BANDS for f in band]
    deepest = min(floors).twice
    pool = []
    for expr in pool_expressions():
        for floor in floors:
            eval_expr(expr, floor=floor)  # every requested floor must evaluate
        ref = reference(expr, REF_FLOOR)
        if ref["floor"] is not None and ref["floor"] > deepest:
            raise SystemExit(f"reference for {expr} only trusted from {ref['floor']}/2")
        if not _agree(ref, reference(expr, CROSS_FLOOR)):
            raise SystemExit(f"references for {expr} at {REF_FLOOR} and {CROSS_FLOOR} differ")
        pool.append({"expr": expr, "ref": ref})
    path.write_text(json.dumps(pool, indent=1) + "\n")


def pin_verify(path: Path) -> None:
    pinned = {}
    for name, (suites, threads) in run.VERIFY.items():
        out = run.child(["verify", ",".join(suites), str(threads)], timeout=600)
        pinned[name] = {
            "cases": {s: v["cases"] for s, v in out["suites"].items()},
            "report": run.mask_millis(out["report"]),
        }
    path.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(run.ROOT / "src"))
    run.PINNED_DIR.mkdir(exist_ok=True)
    pin_calc(run.PINNED_DIR / "calc.json")
    pin_verify(run.PINNED_DIR / "verify.json")
