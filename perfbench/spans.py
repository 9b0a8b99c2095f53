"""Outside-in tracing of the ccmm layers.

The tracer replaces public functions and a few methods of the ccmm modules
with wrappers that record one span per call: name, start, end, parent span
and the id of the benchmark operation that caused it. Size counters are
computed from each call's arguments and result at the same boundary. Spans
stay in memory until the run ends, when they are written out as JSON lines.
Nothing inside ccmm is edited; the wrappers live in this file only.
"""

import functools
import json
import time
from collections import defaultdict

# (module, attribute) pairs wrapped as "<module>.<attribute>".
FUNCTIONS = {
    "groups": ["conjugation_action", "make_group"],
    "configuration": ["read_ccfg", "write_ccfg"],
    "constructions": [
        "trivial_configuration",
        "group_scheme",
        "schurian",
        "group_association_scheme",
        "direct_product",
        "fusion",
        "symmetric_power",
        "symmetric_power_rank",
    ],
    "spectrum": ["center_basis", "character_degrees"],
    "realization": [
        "verify_realization",
        "verify_simultaneous",
        "fibers_realization",
        "action_realization",
        "diagonal_example",
        "sympow_realization",
        "grp_as_realization",
    ],
    "sets": ["greedy_ap_free", "triangle_free_set"],
    "tensors": ["embedded_matmul", "boolean_matmul", "unweighting_check"],
    "exponent": ["solve_asi", "omega_s_noncommutative", "construction_family_bound"],
    "cli": ["main"],
}

# (module, class, method, span name). Both table() definitions report as one
# layer, groups.table.
METHODS = [
    ("configuration", "CoherentConfiguration", "from_class_matrix", "configuration.from_class_matrix"),
    ("configuration", "CoherentConfiguration", "intersection", "configuration.intersection"),
    ("groups", "FiniteGroup", "table", "groups.table"),
    ("groups", "ProductGroup", "table", "groups.table"),
    ("groups", "FiniteGroup", "conjugacy_classes", "groups.conjugacy_classes"),
    ("realization", "SymmetricPowerView", "slice", "realization.SymmetricPowerView.slice"),
    ("tensors", "WeightedMatMul", "__init__", "tensors.WeightedMatMul"),
]


def _dims_pairs(real):
    l, m, n = real.dims
    return (l * m) * (m * n)


def _count_from_class_matrix(tracer, args, kwargs, result):
    matrix = args[1] if len(args) > 1 else kwargs["matrix"]
    n = len(matrix)
    tracer.add("configuration.from_class_matrix.cells", n**3)
    tracer.add("configuration.points", n)
    if result is not None:
        tracer.add("configuration.rank", result.rank)


def _count_intersection(tracer, args, kwargs, result):
    if result is None or id(result) in tracer.seen_tensors:
        return
    tracer.seen_tensors[id(result)] = result  # keep alive so the id stays unique
    tracer.add(
        "configuration.intersection.nonzeros",
        sum(1 for _ in result.iter_nonzero()),
    )


def _count_center(tracer, args, kwargs, result):
    if result is not None:
        tracer.add("spectrum.center_dim", len(result))


def _count_degrees(tracer, args, kwargs, result):
    if result is not None:
        tracer.maximum("spectrum.residual_max", float(result.residual))


def _count_verify(tracer, args, kwargs, result):
    real = args[1] if len(args) > 1 else kwargs["real"]
    tracer.add("realization.verify_realization.pairs", _dims_pairs(real))


def _count_simultaneous(tracer, args, kwargs, result):
    reals = list(args[1] if len(args) > 1 else kwargs["reals"])
    rows = sum(r.dims[0] * r.dims[1] for r in reals)
    cols = sum(r.dims[1] * r.dims[2] for r in reals)
    tracer.add("realization.verify_simultaneous.pairs", rows * cols)


def _count_sympow_rank(tracer, args, kwargs, result):
    config = args[0]
    k = args[1] if len(args) > 1 else kwargs["k"]
    N = config.n_points**k
    tracer.add("constructions.symmetric_power_rank.cells", N * N)


def _count_table(tracer, args, kwargs, result):
    group = args[0]
    if id(group) not in tracer.seen_tables:
        tracer.seen_tables[id(group)] = group
        tracer.add("groups.table.entries", group.order**2)


# Counters evaluated after a call returns. They read arguments and results
# only, so the counts repeat exactly from run to run.
COUNTERS = {
    "configuration.from_class_matrix": _count_from_class_matrix,
    "configuration.intersection": _count_intersection,
    "spectrum.center_basis": _count_center,
    "spectrum.character_degrees": _count_degrees,
    "realization.verify_realization": _count_verify,
    "realization.verify_simultaneous": _count_simultaneous,
    "constructions.symmetric_power_rank": _count_sympow_rank,
    "groups.table": _count_table,
}


class Tracer:
    """Span store and counters for one traced pass."""

    def __init__(self):
        self.names = []  # span name per name id
        self.name_ids = {}
        self.spans = []  # (id, name id, start, end, parent id, op id)
        self.stack = []  # ids of open spans
        self.op_id = -1
        self.counts = defaultdict(int)
        self.maxima = {}
        self.seen_tensors = {}
        self.seen_tables = {}
        self.hidden = defaultdict(float)  # span id -> counter time inside it
        self._undo = []

    # -- counters -------------------------------------------------------

    def add(self, name, value=1):
        self.counts[name] += value

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- spans ----------------------------------------------------------

    def _name_id(self, name):
        got = self.name_ids.get(name)
        if got is None:
            got = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def span(self, name, fn):
        """Wrap fn so that each call records a span called name."""
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the id in call order
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, nid, start, end, parent, self.op_id)
                self.counts[name + ".calls"] += 1
                if counter is not None:
                    # counting runs inside the parent's interval; keep it out
                    # of the parent's self time
                    c0 = clock()
                    counter(self, args, kwargs, result)
                    self.hidden[parent] += clock() - c0

        return wrapper

    def operation(self, name):
        """Context manager for one top-level benchmark operation."""
        return _Operation(self, self._name_id("op." + name))

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap the listed functions in their defining modules, rebind every
        copy made by `from .x import y` in the other modules, then wrap the
        listed methods."""
        modules = {
            name: getattr(package, name)
            for name in (
                "groups",
                "configuration",
                "constructions",
                "spectrum",
                "realization",
                "sets",
                "tensors",
                "exponent",
                "cli",
            )
        }
        for modname, attrs in FUNCTIONS.items():
            home = modules[modname]
            for attr in attrs:
                original = getattr(home, attr)
                wrapped = self.span("%s.%s" % (modname, attr), original)
                for mod in modules.values():
                    if mod.__dict__.get(attr) is original:
                        self._set(mod, attr, wrapped)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(modules[modname], clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.span(name, raw.__func__)))
            else:
                self._set(cls, attr, self.span(name, raw))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reduction --------------------------------------------------------

    def self_times(self):
        """Per span name: total self time (duration minus the time of its
        direct children) and the summed duration of outermost layer spans,
        those whose parent is a benchmark operation."""
        child_time = defaultdict(float)
        for sid, nid, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        covered = 0.0
        for sid, nid, start, end, parent, op in self.spans:
            name = self.names[nid]
            if name.startswith("op."):
                continue
            self_s[name] += (end - start) - child_time[sid] - self.hidden[sid]
            if parent >= 0 and self.names[self.spans[parent][1]].startswith("op."):
                covered += end - start
        return self_s, covered

    def write_jsonl(self, path, header):
        """One header object, then one array per span with the fields named
        in header["fields"]; times are seconds from the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        header = dict(header, names=self.names, fields=["id", "name", "start", "end", "parent", "op"])
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, nid, start, end, parent, op in self.spans:
                fh.write("[%d,%d,%.7f,%.7f,%d,%d]\n" % (sid, nid, start - t0, end - t0, parent, op))


class _Operation:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans)
        self.saved_op = t.op_id
        t.spans.append(None)
        t.stack.append(self.sid)
        t.op_id = self.sid
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t.stack.pop()
        t.op_id = self.saved_op
        parent = t.stack[-1] if t.stack else -1
        t.spans[self.sid] = (self.sid, self.nid, self.start, end, parent, self.sid)
        return False
