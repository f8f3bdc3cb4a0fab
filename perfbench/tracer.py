"""Outside tracer: per-layer spans recorded from the benchmark's own files.

A layer is a module of the `algebroid` package.  `Tracer.install` wraps the
layer-boundary functions listed in BOUNDARIES wherever the package binds
them: in the defining module, in every module that did `from .x import y`,
and on the class for methods.  Inner helpers (`trig_mul`, `sort_sign`,
`_rref`, the polyroots arithmetic) are not wrapped; their time is self time
of the boundary that calls them.  Nothing in the package changes, and
`uninstall` puts every original back.

Each call of a wrapped function is a span: name, parent span, job id,
thread, and start and end on two clocks, the wall clock and the calling
thread's CPU clock.  Spans stay in memory and are written as JSON lines by
`write_jsonl` after the measured passes.

Self time is a span's duration minus the part its children cover.  Per-layer
times are CPU self times: the circle sweep runs its windows in a thread pool
under the interpreter lock, so a worker's wall-clock span also counts the
time it waited for the lock, while its CPU clock counts only the time it
ran.  Children in the same thread nest, so their CPU times are subtracted;
the window spans of a sweep run in pool threads and attach to the sweep
span through the `mapper` the sweep is given.  The JSON lines keep each
span's wall-clock start and end, from which wall-clock self time can be
derived.

Attribution to per-layer metrics follows the span name, with one
exception: dense matrix operations inside `CochainComplex.chain_defect` are
the d^2 = 0 check and count towards `exactlinalg.d2_check_s`.  Counting the
entries handed to `rank` happens inside the span but is timed separately
and subtracted (`tare_cpu`), so it is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "algebroid"

DENSE = "exactlinalg.dense_ops_s"
D2 = "exactlinalg.d2_check_s"
SWEEP = "circle.stabilized_cohomology"
WINDOW = "circle.window"
RANK = "exactlinalg.rank"
CHAIN_DEFECT = "exactlinalg.CochainComplex.chain_defect"
WINDOW_ASSEMBLY = ("circle.Rank1Anchor._truncated_complex",
                   "circle.ActionAlgebroid._truncated_complex")

# (module, function or Class.method, per-layer metric its self time counts towards)
BOUNDARIES = (
    ("cli", "run", "cli.self_s"),
    ("catalog", "algebra", "catalog.load_s"),
    ("catalog", "representation", "catalog.load_s"),
    ("catalog", "algebroid", "catalog.load_s"),
    ("catalog", "entry", "catalog.load_s"),
    ("io", "load_json", "io.parse_s"),
    ("io", "algebra_from_dict", "io.parse_s"),
    ("io", "representation_from_dict", "io.parse_s"),
    ("io", "algebroid_from_dict", "io.parse_s"),
    ("io", "fiber_from_dict", "io.parse_s"),
    ("liealg", "trivial_representation", "liealg.assemble_s"),
    ("liealg", "ce_complex", "liealg.assemble_s"),
    ("liealg", "ce_differential", "liealg.assemble_s"),
    ("liealg", "trivial_ce_differential", "liealg.assemble_s"),
    ("liealg", "check_jacobi", "liealg.validate_s"),
    ("liealg", "check_representation", "liealg.validate_s"),
    ("exterior", "wedge_matrix", "exterior.wedge_s"),
    ("exactlinalg", "RationalMatrix.__add__", DENSE),
    ("exactlinalg", "RationalMatrix.__sub__", DENSE),
    ("exactlinalg", "RationalMatrix.__neg__", DENSE),
    ("exactlinalg", "RationalMatrix.scaled", DENSE),
    ("exactlinalg", "RationalMatrix.__matmul__", DENSE),
    ("exactlinalg", "RationalMatrix.apply", DENSE),
    ("exactlinalg", "RationalMatrix.kron", DENSE),
    ("exactlinalg", "block_matrix", DENSE),
    ("exactlinalg", "rank", "exactlinalg.eliminate_s"),
    ("exactlinalg", "CochainComplex.chain_defect", D2),
    ("exactlinalg", "kernel_basis", "exactlinalg.kernel_s"),
    ("exactlinalg", "inverse", "exactlinalg.kernel_s"),
    ("circle", "stabilized_cohomology", "circle.assemble_s"),
    ("circle", "Rank1Anchor._truncated_complex", "circle.assemble_s"),
    ("circle", "ActionAlgebroid._truncated_complex", "circle.assemble_s"),
    ("circle", "is_transitive", "circle.validate_s"),
    ("circle", "check_action", "circle.validate_s"),
    ("circle", "has_zero_on_circle", "circle.validate_s"),
    ("circle", "count_simple_zeros", "circle.validate_s"),
    ("kunneth", "direct_sum", "kunneth.assemble_s"),
    ("kunneth", "tensor_rep", "kunneth.assemble_s"),
    ("kunneth", "tensor_complex", "kunneth.assemble_s"),
    ("kunneth", "product_with_lie_algebra", "kunneth.assemble_s"),
    ("kunneth", "ProductWithAlgebra._truncated_complex", "kunneth.assemble_s"),
    ("kunneth", "kunneth_verify", "kunneth.verify_s"),
    ("hopf", "addition", "hopf.check_s"),
    ("hopf", "check_h_structure", "hopf.check_s"),
    ("hopf", "addition_coproduct", "hopf.check_s"),
    ("hopf", "hopf_axioms", "hopf.check_s"),
    ("hopf", "primitives", "hopf.check_s"),
    ("hopf", "exterior_structure_check", "hopf.check_s"),
    ("symbol", "pullback_covector", "symbol.check_s"),
    ("symbol", "symbol_complex", "symbol.check_s"),
    ("symbol", "exactness_check", "symbol.check_s"),
)

METRIC = {f"{mod}.{qual}": metric for mod, qual, metric in BOUNDARIES}
METRIC[WINDOW] = "circle.assemble_s"

TIME_METRICS = tuple(dict.fromkeys(m for _, _, m in BOUNDARIES))
COUNT_METRICS = ("liealg.differentials", "circle.windows", "exactlinalg.rank_calls",
                 "exactlinalg.rank_cells", "exactlinalg.rank_nnz", "exactlinalg.max_bits")
RATIO_METRICS = ("exactlinalg.density", "circle.sweep_parallelism")


class Span:
    __slots__ = ("id", "name", "parent", "job", "thread", "t0", "c0", "t1", "c1",
                 "tare_cpu", "stats")

    def __init__(self, id, name, parent, job, thread):
        self.id, self.name, self.parent, self.job, self.thread = id, name, parent, job, thread
        self.t0 = self.c0 = self.t1 = self.c1 = 0.0
        self.tare_cpu = 0.0
        self.stats = None


def matrix_stats(m):
    """(cells, nonzeros, largest numerator or denominator bit length)."""
    nnz = bits = 0
    for row in m.to_rows():
        for x in row:
            if x:
                nnz += 1
                bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return m.rows * m.cols, nnz, bits


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None, stats=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), name, parent.id if parent else None,
                    parent.job if parent else self.job, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        span.c0 = time.thread_time()
        span.t0 = time.perf_counter()
        try:
            if stats is not None:
                c = time.thread_time()
                span.stats = stats(*args)
                span.tare_cpu = time.thread_time() - c
            return fn(*args, **kwargs)
        finally:
            span.t1 = time.perf_counter()
            span.c1 = time.thread_time()
            stack.pop()

    def _wrap(self, name, fn):
        if name == SWEEP:
            return self._wrap_sweep(fn)
        tracer = self
        stats = matrix_stats if name == RANK else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, stats=stats)
        return traced

    def _wrap_sweep(self, fn):
        """The sweep span, whose windows become spans in the pool's threads."""
        tracer = self
        signature = inspect.signature(fn)

        def windows(mapper):
            def traced_mapper(window_fn, items):
                sweep = tracer._stack()[-1]
                return mapper(lambda n: tracer.call(WINDOW, window_fn, (n,), {}, parent=sweep),
                              items)
            return traced_mapper

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if "mapper" in signature.parameters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound.arguments["mapper"] = windows(bound.arguments["mapper"])
                args, kwargs = bound.args, bound.kwargs
            return tracer.call(SWEEP, fn, args, kwargs)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every boundary at every binding; boundaries that no longer
        exist in the package are skipped."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, qual, _ in BOUNDARIES:
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            original = vars(owner).get(attr)
            if not callable(original):
                continue
            wrapper = self._wrap(f"{mod_name}.{qual}", original)
            if path:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def analyse(self):
        """(per-span rows, per-layer times, counts, ratios) of the recorded spans."""
        spans = self.spans
        by_id = {s.id: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s.parent in by_id:
                children[s.parent].append(s)
        in_d2 = {}

        def under_d2(s):
            if s.id not in in_d2:
                parent = by_id.get(s.parent)
                in_d2[s.id] = parent is not None and (parent.name == CHAIN_DEFECT
                                                       or under_d2(parent))
            return in_d2[s.id]

        rows = []
        times = dict.fromkeys(TIME_METRICS, 0.0)
        counts = dict.fromkeys(COUNT_METRICS, 0)
        busy = wall = 0.0
        for s in sorted(spans, key=lambda s: s.id):
            kids = children[s.id]
            cpu_self = (s.c1 - s.c0 - s.tare_cpu
                        - sum(k.c1 - k.c0 for k in kids if k.thread == s.thread))
            metric = METRIC[s.name]
            if metric == DENSE and under_d2(s):
                metric = D2
            times[metric] += cpu_self
            rows.append((s, metric, cpu_self))
            if s.name == "liealg.ce_differential":
                counts["liealg.differentials"] += 1
            elif s.name in WINDOW_ASSEMBLY:
                counts["circle.windows"] += 1
            elif s.name == RANK and s.stats is not None:
                cells, nnz, bits = s.stats
                counts["exactlinalg.rank_calls"] += 1
                counts["exactlinalg.rank_cells"] += cells
                counts["exactlinalg.rank_nnz"] += nnz
                counts["exactlinalg.max_bits"] = max(counts["exactlinalg.max_bits"], bits)
            elif s.name == SWEEP:
                wall += s.t1 - s.t0
                busy += s.c1 - s.c0 + _other_thread_cpu(s, children)
        ratios = {
            "exactlinalg.density": (counts["exactlinalg.rank_nnz"] / counts["exactlinalg.rank_cells"]
                                    if counts["exactlinalg.rank_cells"] else 0.0),
            "circle.sweep_parallelism": busy / wall if wall else 0.0,
        }
        return rows, times, counts, ratios

    def write_jsonl(self, path):
        """One JSON line per span, with its CPU self time and metric."""
        rows, *_ = self.analyse()
        epoch = min((s.t0 for s, *_ in rows), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s, metric, cpu_self in rows:
                record = {"id": s.id, "name": s.name, "parent": s.parent, "job": s.job,
                          "thread": s.thread, "start": s.t0 - epoch, "end": s.t1 - epoch,
                          "cpu": s.c1 - s.c0, "self_s": cpu_self, "metric": metric}
                if s.stats is not None:
                    record["cells"], record["nnz"], record["max_bits"] = s.stats
                fh.write(json.dumps(record) + "\n")


def _other_thread_cpu(span, children) -> float:
    """CPU time of the subtrees of `span` that run in other threads."""
    total = 0.0
    todo = list(children[span.id])
    while todo:
        k = todo.pop()
        if k.thread != span.thread:
            total += k.c1 - k.c0
        else:
            todo.extend(children[k.id])
    return total
