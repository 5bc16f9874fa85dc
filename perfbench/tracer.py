"""In-memory span tracer that wraps svpsido's layer functions from outside.

Nothing in the package is edited: each traced function is replaced, on
its defining module or class and on every svpsido module that imported
the same object by name, by a wrapper that records a span (name, start,
end, parent, thread).  Every thread keeps its own span buffer and parent
stack, so the two workers of a pooled verify run never share a list.

Three hooks at the ring and half-integer level run millions of times per
pass and are aggregated instead of recorded one by one: `ring.coeff_mul` keeps a call count and
its time (charged to the enclosing span as covered child time), while
`ring.coeff_add` and `halfint.hash` keep call counts only.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from array import array

from svpsido import cocycles, diffop2, halfint, kacmoody, poisson, psido, ring
from svpsido import svaction, svalgebra, textio, transforms

# (span name, owner, attribute); several attributes may share one name
SPANS = (
    ("psido.sym_mul", psido, "sym_mul"),
    ("psido.sym_bracket", psido, "sym_bracket"),
    ("psido.adler_trace", psido, "adler_trace"),
    ("transforms.theta", transforms, "theta"),
    ("transforms.theta_inv", transforms, "theta_inv"),
    ("transforms.theta_t", transforms, "theta_t"),
    ("transforms.time_shift", transforms, "time_shift"),
    ("transforms.image", transforms.ThetaImageCache, "image"),
    ("cocycles.identity_defect", cocycles, "cocycle_identity_defect"),
    ("cocycles.eval_cocycle", cocycles, "eval_cocycle"),
    ("kacmoody.pairing", kacmoody, "pairing"),
    ("kacmoody.g_bracket", kacmoody, "g_bracket"),
    ("kacmoody.coadjoint", kacmoody, "coadjoint"),
    ("kacmoody.embed", kacmoody, "embed_momentum_symbol"),
    ("poisson.hamiltonian_vector", poisson, "hamiltonian_vector"),
    ("poisson.poisson_bracket", poisson, "poisson_bracket"),
    ("poisson.variational_derivative", poisson, "variational_derivative"),
    ("svaction.d_sigma", svaction, "d_sigma_tilde"),
    ("svaction.d_sigma", svaction, "d_sigma_affine"),
    ("diffop2.dop_mul", diffop2, "dop_mul"),
    ("svalgebra.sv_bracket", svalgebra, "sv_bracket"),
    ("textio.render", textio, "symbol_str"),
    ("textio.render", textio, "coeff_str"),
    ("textio.render", textio, "scalar_str"),
    ("textio.render", textio, "gauss_str"),
    ("textio.eval_expr", textio, "eval_expr"),
)
TIMED_LEAVES = (("ring.coeff_mul", ring.CoeffFn, "__mul__"),)
COUNTED = (
    ("ring.coeff_add", ring.CoeffFn, "__add__"),
    ("halfint.hash", halfint.HalfInt, "__hash__"),
)

# layers reported by self time and by call count
SELF_TIMED = (
    "ring.coeff_mul", "psido.sym_mul", "transforms.theta", "transforms.theta_inv",
    "transforms.theta_t", "transforms.time_shift", "cocycles.identity_defect",
    "cocycles.eval_cocycle", "kacmoody.pairing", "kacmoody.g_bracket", "kacmoody.coadjoint",
    "kacmoody.embed", "poisson.hamiltonian_vector", "poisson.poisson_bracket",
    "svaction.d_sigma", "diffop2.dop_mul", "svalgebra.sv_bracket", "textio.render",
    "textio.eval_expr",
)
CALL_COUNTED = (
    "ring.coeff_mul", "ring.coeff_add", "halfint.hash", "psido.sym_mul", "psido.sym_bracket",
    "psido.adler_trace", "transforms.theta", "transforms.theta_inv", "transforms.image",
    "cocycles.identity_defect", "kacmoody.pairing", "poisson.variational_derivative",
)

# span name -> the value recorded with each span, from its result
_EXTRA = {"psido.sym_mul": lambda out: len(out.terms)}


class _Buffer:
    """Spans and counters of one thread."""

    def __init__(self, n_names: int):
        self.tid = threading.get_ident()
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.extra = array("l")
        self.leaf_s = array("d")  # aggregated leaf time covered inside each span
        self.stack: list = []
        self.counts = [0] * n_names
        self.times = [0.0] * n_names


class Tracer:
    def __init__(self):
        self.names: list = []
        self._local = threading.local()
        self._buffers: list = []
        self._lock = threading.Lock()

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(len(self.names))
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    # ------------------------------------------------------------ wrappers

    def _span(self, nid: int, fn):
        buffer, clock = self._buffer, time.perf_counter
        extra = _EXTRA.get(self.names[nid])

        def traced(*args, **kwargs):
            buf = buffer()
            idx = len(buf.start)
            stack = buf.stack
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0.0)
            buf.extra.append(0)
            buf.leaf_s.append(0.0)
            stack.append(idx)
            buf.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                stack.pop()
            if extra is not None:
                buf.extra[idx] = extra(out)
            return out

        return traced

    def _leaf(self, nid: int, fn):
        buffer, clock = self._buffer, time.perf_counter

        def timed(*args, **kwargs):
            buf = buffer()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                buf.counts[nid] += 1
                buf.times[nid] += dt
                if buf.stack:
                    buf.leaf_s[buf.stack[-1]] += dt

        return timed

    def _counter(self, nid: int, fn):
        buffer = self._buffer

        def counted(*args, **kwargs):
            buffer().counts[nid] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every listed function wherever svpsido holds it by name."""
        hooks = [(name, owner, attr, self._span) for name, owner, attr in SPANS]
        hooks += [(name, owner, attr, self._leaf) for name, owner, attr in TIMED_LEAVES]
        hooks += [(name, owner, attr, self._counter) for name, owner, attr in COUNTED]
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "svpsido"]
        for name, owner, attr, kind in hooks:
            original = vars(owner)[attr]
            wrapper = kind(self._id(name), original)
            holders = modules if isinstance(owner, type(sys)) else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    # ------------------------------------------------------------ results

    def write(self, path: str) -> int:
        """Write every span: a JSON header line, then raw arrays per thread."""
        with open(path, "wb") as out:
            header = {
                "names": self.names,
                "threads": [{"tid": b.tid, "spans": len(b.start)} for b in self._buffers],
                "arrays": ["name:H", "start:d", "end:d", "parent:l", "extra:l"],
            }
            out.write(json.dumps(header).encode() + b"\n")
            for b in self._buffers:
                for arr in (b.name, b.start, b.end, b.parent, b.extra):
                    arr.tofile(out)
        return sum(len(b.start) for b in self._buffers)

    def layer_metrics(self) -> dict:
        """Calls, self time and the derived per-layer ratios."""
        n = len(self.names)
        nid = {name: i for i, name in enumerate(self.names)}
        mul, image, inv = nid["psido.sym_mul"], nid["transforms.image"], nid["transforms.theta_inv"]
        pair, defect = nid["kacmoody.pairing"], nid["cocycles.identity_defect"]
        bracket, render = nid["psido.sym_bracket"], nid["textio.render"]
        calls = [0] * n
        self_s = [0.0] * n
        extra = [0] * n
        mul_terms = brackets_in_defect = render_top = 0
        missed = {image: 0, inv: 0}
        for b in self._buffers:
            for i in range(n):
                calls[i] += b.counts[i]
                self_s[i] += b.times[i]
            names, parents = b.name, b.parent
            size = len(names)
            dur = [b.end[i] - b.start[i] for i in range(size)]
            covered = list(b.leaf_s)
            under_pair = bytearray(size)
            under_defect = bytearray(size)
            # a parent is always recorded before its children
            for i in range(size):
                name, p = names[i], parents[i]
                calls[name] += 1
                extra[name] += b.extra[i]
                if p < 0:
                    render_top += name == render
                    continue
                covered[p] += dur[i]
                parent_name = names[p]
                under_pair[i] = under_pair[p] or parent_name == pair
                under_defect[i] = under_defect[p] or parent_name == defect
                if name == mul:
                    if under_pair[i]:
                        mul_terms += b.extra[i]
                elif name == bracket:
                    brackets_in_defect += under_defect[i]
                elif name == render:
                    render_top += parent_name != render
            opened_mul = {parents[i] for i in range(size) if names[i] == mul and parents[i] >= 0}
            for p in opened_mul:
                if names[p] in missed:
                    missed[names[p]] += 1
            for i in range(size):
                self_s[names[i]] += dur[i] - covered[i]

        def share(part, whole):
            return part / whole if whole else 0.0

        out = {}
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self_s[nid[name]]
        for name in CALL_COUNTED:
            out[f"{name}.calls"] = calls[nid[name]]
        out["textio.render.calls"] = render_top
        out["psido.sym_mul.out_terms"] = extra[mul]
        out["kacmoody.pairing.mul_terms"] = mul_terms
        out["transforms.image.miss_share"] = share(missed[image], calls[image])
        out["transforms.theta_inv.miss_share"] = share(missed[inv], calls[inv])
        out["cocycles.brackets_per_defect"] = share(brackets_in_defect, calls[defect])
        return out
