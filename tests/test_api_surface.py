"""No public function that only tests reach.

Every public top-level ``def`` and ``class`` in ``src/maskcast`` must be
referenced, as a name, an attribute or an imported name, somewhere other
than its own definition: in the package, in ``perfbench/*.py``, or as the
console-script entry in ``pyproject.toml``. String literals are not
references, so a name that only appears in a lookup table of strings does
not keep a definition alive.

The names the benchmark's span tracer looks up must still exist, so that
deleting one fails here rather than in a traced benchmark run.

Below the top level, the same rule applies to settings and state: every
defaulted parameter is passed by some call in the package or the benchmark
(a default nobody overrides is a constant), and every field, property or
method of a package class is read as an attribute in the package, the
benchmark or the tests. Both checks match by name only, so a member passes
when another object's attribute of the same name is read.
"""

import ast
import importlib
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "maskcast").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
READERS = CALLERS + sorted((ROOT / "tests").glob("*.py"))

# defaulted parameters that no call in the package or the benchmark passes
UNPASSED_DEFAULTS = {
    "main.argv": "None makes argparse read sys.argv, which the console script relies on",
    "synthesize.autoreg": "tests set it to check a stronger diffusion stays bounded",
    "synthesize.noise_scale": "criterion 5's data is synthesized with noise_scale=0.5",
    "gaussian_threshold_graph.sigma": "None derives the kernel width from the distances; tests fix it",
}


def references(node):
    """Counter of the identifiers ``node`` refers to."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
    return out


def script_entries():
    text = (ROOT / "pyproject.toml").read_text()
    return set(re.findall(r'^\w[\w-]*\s*=\s*"maskcast\.[\w.]+:(\w+)"', text, flags=re.M))


def parse(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def unreferenced():
    trees = parse(CALLERS)
    total = sum((references(tree) for tree in trees.values()), Counter())
    total.update(script_entries())
    missing = []
    for path in PACKAGE:
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and total[node.name] - references(node)[node.name] <= 0):
                missing.append(f"{path.name}: {node.name}")
    return missing


def test_every_public_definition_has_a_caller_outside_tests():
    assert unreferenced() == []


def test_string_literals_are_not_references():
    tree = ast.parse("KERNELS = ('tanh', 'take')\nad.concat(xs)\nfrom .masking import MaskPlan\n")
    found = references(tree)
    assert found["concat"] == 1 and found["MaskPlan"] == 1 and found["ad"] == 1
    assert found["tanh"] == 0 and found["take"] == 0



def test_every_traced_name_resolves(monkeypatch):
    # perfbench/run.py puts its own directory on sys.path to import spans
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    missing = [f"{module.__name__}.{name}" for module, names in spans.TRACED.items()
               for name in names if not hasattr(module, name)]
    missing += [f"autodiff.{name}" for name in spans.KERNELS if not hasattr(spans.autodiff, name)]
    missing += [f"{cls.__name__}.{name}" for cls, name in spans.METHODS if not hasattr(cls, name)]
    assert missing == []


def defaulted_parameters(tree):
    """(callee name, parameter name, positional index or None, label) for every
    defaulted parameter; a method's index counts past ``self``/``cls``, and
    ``__init__`` is called by its class name."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                shift = 1 if owner is not None and not static else 0
                name = owner.name if child.name == "__init__" and owner is not None else child.name
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    out.append((name, arg.arg, i - shift, f"{name}.{arg.arg}"))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((name, arg.arg, None, f"{name}.{arg.arg}"))
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return out


def passes(call, param, index):
    """Whether ``call`` supplies ``param``: by keyword, by position, or by unpacking."""
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if index is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > index


def unpassed_defaults():
    calls = {}
    for tree in parse(CALLERS).values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    missing = []
    for tree in parse(PACKAGE).values():
        for name, param, index, label in defaulted_parameters(tree):
            if not any(passes(call, param, index) for call in calls.get(name, [])):
                missing.append(label)
    return sorted(missing)


def class_members(tree):
    """(class name, member name) for every non-dunder field, property and method,
    including attributes a method assigns on ``self``."""
    out = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                out.add((cls.name, node.target.id))
            elif isinstance(node, ast.Assign):
                out.update((cls.name, t.id) for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.FunctionDef):
                out.add((cls.name, node.name))
                for n in ast.walk(node):
                    if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                            and isinstance(n.value, ast.Name) and n.value.id == "self"):
                        out.add((cls.name, n.attr))
    return {(c, m) for c, m in out if not (m.startswith("__") and m.endswith("__"))}


def unread_members():
    reads = {n.attr for tree in parse(READERS).values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    members = set().union(*(class_members(tree) for tree in parse(PACKAGE).values()))
    return sorted(f"{c}.{m}" for c, m in members if m not in reads)


def test_every_default_is_passed_by_some_caller():
    assert unpassed_defaults() == sorted(UNPASSED_DEFAULTS)


def test_every_class_member_is_read():
    assert unread_members() == []


def test_default_scan_sees_every_way_to_pass():
    tree = ast.parse("def f(a, b=1, *, c=2):\n    pass\n"
                     "class K:\n    def __init__(self, x=0):\n        self.x = x\n")
    found = {label: (name, param, index) for name, param, index, label in defaulted_parameters(tree)}
    assert found == {"f.b": ("f", "b", 1), "f.c": ("f", "c", None), "K.x": ("K", "x", 0)}
    call = ast.parse("f(1, 2)").body[0].value
    assert passes(call, "b", 1) and not passes(call, "c", None)
    assert passes(ast.parse("f(*xs)").body[0].value, "b", 1)
    assert passes(ast.parse("f(1, **kw)").body[0].value, "c", None)
    assert not passes(ast.parse("K()").body[0].value, "x", 0)
