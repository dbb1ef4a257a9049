"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the public entry points listed in ``SPANS`` with
wrappers, in every ``gtrotor`` module that holds them (so names other
modules imported with ``from ... import`` are wrapped too) and on the
classes that define the methods.  Each wrapped call records a span (id,
parent id, id of the benchmark operation it belongs to, name, start, end)
in memory; ``write`` dumps them at the end of the run.

A layer's self time is its spans' duration minus what their child spans
and aggregated calls cover.  The tracer's own bookkeeping inside a wrapper
(operand scans, bit counts) is charged to the child, so it never inflates
a parent's self time.

``krawtchouk_trig`` runs ~10^5 times per operation, so it gets aggregated
counters (calls, nonzero results, time) instead of one span per call.
``factorial`` is counted through its public ``cache_info`` and not wrapped.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute or Class.method, metric stem)
SPANS = (
    ("gtrotor.rotations", "sigma_formula", "rotations.sigma_formula"),
    ("gtrotor.rotations", "sigma_product", "rotations.sigma_product"),
    ("gtrotor.rotations", "rho_z", "rotations.rho_z"),
    ("gtrotor.rotations", "tau_raw", "rotations.tau_raw"),
    ("gtrotor.rotations", "tau_inverse", "rotations.tau_inverse"),
    ("gtrotor.oracle", "calibrate_tau_sign", "oracle.calibrate_tau_sign"),
    ("gtrotor.oracle", "rho_oracle", "oracle.rho_oracle"),
    ("gtrotor.linalg", "PatternMatrix.__matmul__", "linalg.matmul"),
    ("gtrotor.linalg", "PatternMatrix.zeta_numpy", "linalg.zeta_numpy"),
    ("gtrotor.linalg", "PatternMatrix.from_zeta_numpy", "linalg.zeta_numpy"),
    ("gtrotor.gt_basis", "enumerate_patterns", "gt_basis.enumerate_patterns"),
    ("gtrotor.gt_basis", "IrrepBasis.norms_sq", "gt_basis.norms_sq"),
    ("gtrotor.rep", "generator_matrix", "rep.generator_matrix"),
    ("gtrotor.rep", "element_matrix", "rep.element_matrix"),
    ("gtrotor.rep", "verify_structure", "rep.verify_structure"),
    ("gtrotor.racah_algebra", "jbar_matrix", "racah_algebra.jbar_matrix"),
    ("gtrotor.racah_algebra", "central_data", "racah_algebra.central_data"),
    ("gtrotor.racah_algebra", "racah_relations_residual", "racah_algebra.racah_relations_residual"),
    ("gtrotor.verify", "suite_rep", "verify.suite_rep"),
    ("gtrotor.verify", "suite_polys", "verify.suite_polys"),
    ("gtrotor.verify", "suite_racah_algebra", "verify.suite_racah_algebra"),
    ("gtrotor.verify", "suite_bispectral", "verify.suite_bispectral"),
    ("gtrotor.verify", "suite_hilbert", "verify.suite_hilbert"),
)
AGGREGATED = ("gtrotor.specfun", "krawtchouk_trig", "specfun.krawtchouk_trig")

# metrics of the traced run, with their units; every one is always emitted
METRICS = {
    "numerics.factorial_calls": "count",
    "specfun.krawtchouk_trig_calls": "count",
    "specfun.krawtchouk_trig_nonzero_ratio": "ratio",
    "specfun.krawtchouk_trig_s": "s",
    "rotations.sigma_bits_max": "count",
    "linalg.matmul_calls": "count",
    "linalg.matmul_terms": "count",
    "linalg.operand_bits_max": "count",
    **{f"{stem}_s": "s" for _, _, stem in SPANS},
}

perf = time.perf_counter


def _bits(m) -> int:
    """Largest numerator or denominator bit length of an exact matrix."""
    if not m.exact:
        return 0
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in m.entries.values()),
        default=0,
    )


class _Frame:
    __slots__ = ("span_id", "covered")

    def __init__(self, span_id):
        self.span_id = span_id
        self.covered = 0.0


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []  # (id, parent, op, name, start, end, self)
        self.stack = []
        self.op_id = None
        self.next_id = 1
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.bits = Counter()
        self.factorial_calls = 0
        self._factorial = None
        self._fact0 = 0
        self._op_label = None
        self._op_start = 0.0

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gtrotor" or n.startswith("gtrotor.")) and m is not None]
        for mod_name, attr, stem in SPANS:
            self._patch(modules, mod_name, attr, self._span_wrapper(stem, attr))
        mod_name, attr, stem = AGGREGATED
        self._patch(modules, mod_name, attr, self._aggregate_wrapper(stem))
        self._factorial = sys.modules["gtrotor.numerics"].factorial

    def _patch(self, modules, mod_name, attr, make):
        owner = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            return
        orig = getattr(owner, attr)
        wrapped = make(orig)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapped)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, stem, attr):
        tracer = self
        is_matmul = attr.endswith("__matmul__")
        is_sigma = attr.startswith("sigma_")

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                enter = perf()
                if is_matmul:
                    tracer._count_matmul(args[0], args[1])
                parent = tracer.stack[-1] if tracer.stack else None
                frame = _Frame(tracer.next_id)
                tracer.next_id += 1
                tracer.stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf()
                    tracer.stack.pop()
                    own = end - start - frame.covered
                    tracer.self_s[stem] += own
                    tracer.spans.append((
                        frame.span_id, parent.span_id if parent else tracer.op_id,
                        tracer.op_id, stem, start, end, own,
                    ))
                    if parent is not None:
                        parent.covered += end - enter
                if is_sigma:
                    tracer.bits["rotations.sigma_bits_max"] = max(
                        tracer.bits["rotations.sigma_bits_max"], _bits(result)
                    )
                    if parent is not None:
                        parent.covered += perf() - end
                return result

            wrapper.__wrapped__ = fn
            wrapper.__name__ = getattr(fn, "__name__", stem)
            return wrapper

        return make

    def _aggregate_wrapper(self, stem):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                start = perf()
                result = fn(*args, **kwargs)
                end = perf()
                tracer.self_s[stem] += end - start
                tracer.counts[f"{stem}_calls"] += 1
                if result != 0:
                    tracer.counts[f"{stem}_nonzero"] += 1
                if tracer.stack:
                    tracer.stack[-1].covered += perf() - start
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _count_matmul(self, a, b):
        rows = Counter(j for (j, _) in b.entries)
        self.counts["linalg.matmul_calls"] += 1
        self.counts["linalg.matmul_terms"] += sum(rows[j] for (_, j) in a.entries)
        self.bits["linalg.operand_bits_max"] = max(
            self.bits["linalg.operand_bits_max"], _bits(a), _bits(b)
        )

    # -- traced regions -------------------------------------------------------

    def _factorial_total(self) -> int:
        info = self._factorial.cache_info()
        return info.hits + info.misses

    def begin(self, op_label=None):
        """Start a traced region; spans inside share one operation id."""
        self.op_id = self.next_id
        self.next_id += 1
        self._op_label = op_label
        self._fact0 = self._factorial_total()
        self.enabled = True
        self._op_start = perf()

    def end(self):
        end = perf()
        self.enabled = False
        self.factorial_calls += self._factorial_total() - self._fact0
        self.spans.append((self.op_id, None, self.op_id, f"op:{self._op_label}",
                           self._op_start, end, None))
        self.op_id = None

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        calls = self.counts["specfun.krawtchouk_trig_calls"]
        out = {
            "numerics.factorial_calls": self.factorial_calls,
            "specfun.krawtchouk_trig_calls": calls,
            "specfun.krawtchouk_trig_nonzero_ratio": (
                self.counts["specfun.krawtchouk_trig_nonzero"] / calls if calls else 0.0
            ),
            "linalg.matmul_calls": self.counts["linalg.matmul_calls"],
            "linalg.matmul_terms": self.counts["linalg.matmul_terms"],
            "linalg.operand_bits_max": self.bits["linalg.operand_bits_max"],
            "rotations.sigma_bits_max": self.bits["rotations.sigma_bits_max"],
        }
        for name, unit in METRICS.items():
            if unit == "s":
                out[name] = self.self_s[name[:-2]]
        return out

    def write(self, path: str):
        """All spans as JSON lines; times are seconds on the perf_counter clock."""
        keys = ("id", "parent", "op", "name", "start", "end", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
