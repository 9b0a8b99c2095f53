"""The names the benchmark reaches in ccmm.

perfbench/workloads.py calls the library through module attributes
(L.realization.verify_realization, or R.diagonal_example after
R = L.realization), and perfbench/spans.py wraps listed functions and
methods by name. A moved or renamed name breaks the benchmark only when it
runs, so these tests resolve every such name against the package and
install and uninstall the tracer once."""

import ast
import importlib.util
import inspect
import pathlib

import ccmm
import ccmm.cli  # noqa: F401  (the tracer wraps cli.main; this loads every module)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (
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


def _chain(node):
    """(base name, [attr, ...]) of an attribute chain such as L.a.b, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return node.id, attrs[::-1]


def _is_lib(node):
    return isinstance(node, ast.Attribute) and node.attr == "lib"


def library_reads(source):
    """{(module, dotted attribute path)} for every read of a ccmm module in
    the source: through a name bound to self.lib (L.realization.x) and
    through a name bound to one of its modules (R = L.realization; R.x).
    Bindings are collected per top-level function and class method, nested
    functions and lambdas included."""
    tree = ast.parse(source)
    scopes = [
        fn
        for top in tree.body
        for fn in ([top] if isinstance(top, ast.FunctionDef) else getattr(top, "body", []))
        if isinstance(fn, ast.FunctionDef)
    ]
    reads = set()
    for fn in scopes:
        roots, aliases = set(), {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if _is_lib(node.value):
                    roots.add(target.id)
                chain = _chain(node.value)
                if chain and chain[0] in roots and len(chain[1]) == 1:
                    aliases[target.id] = chain[1][0]
        for node in ast.walk(fn):
            # a chain and each of its prefixes are read; all must resolve
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if chain is None:
                continue
            base, attrs = chain
            if base in roots and len(attrs) >= 2:
                reads.add((attrs[0], ".".join(attrs[1:])))
            elif base in aliases:
                reads.add((aliases[base], ".".join(attrs)))
    return reads


def test_every_name_the_workloads_read_resolves():
    reads = library_reads((PERFBENCH / "workloads.py").read_text())
    # the scan sees direct reads and both alias forms
    assert ("configuration", "CoherentConfiguration.from_class_matrix") in reads
    assert ("realization", "TripleFamily") in reads  # R = L.realization
    assert ("constructions", "fusion") in reads  # C = L.constructions
    missing = []
    for module, path in sorted(reads):
        assert module in MODULES, (module, path)
        obj = getattr(ccmm, module)
        for attr in path.split("."):
            if not hasattr(obj, attr):
                missing.append("%s.%s" % (module, path))
                break
            obj = getattr(obj, attr)
    assert missing == []


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _owners():
    """Every ccmm module the tracer touches and every class defined in one."""
    out = []
    for name in MODULES:
        mod = getattr(ccmm, name)
        out.append(mod)
        out.extend(
            cls
            for cls in vars(mod).values()
            if inspect.isclass(cls) and cls.__module__ == mod.__name__
        )
    return out


def test_tracer_wraps_every_listed_name_and_restores_it():
    spans = _load_spans()
    before = {id(owner): (owner, dict(vars(owner))) for owner in _owners()}
    tracer = spans.Tracer()
    try:
        tracer.install(ccmm)
        for module, attrs in spans.FUNCTIONS.items():
            home = getattr(ccmm, module)
            for attr in attrs:
                assert vars(home)[attr] is not before[id(home)][1][attr], (module, attr)
        for module, cls, attr, _ in spans.METHODS:
            owner = getattr(getattr(ccmm, module), cls)
            assert vars(owner)[attr] is not before[id(owner)][1][attr], (cls, attr)
    finally:
        tracer.uninstall()
    changed = [
        "%s.%s" % (getattr(owner, "__name__", owner), attr)
        for owner, saved in before.values()
        for attr, value in saved.items()
        if vars(owner).get(attr) is not value
    ]
    assert changed == []
