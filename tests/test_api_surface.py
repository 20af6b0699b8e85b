"""No public function that only tests reach.

Every public top-level ``def`` and ``class`` in ``src/maskcast`` must be
referenced, as a name, an attribute or an imported name, somewhere other
than its own definition: in the package, in ``perfbench/*.py``, or as the
console-script entry in ``pyproject.toml``. String literals are not
references, so a name that only appears in a lookup table of strings does
not keep a definition alive.

The names the benchmark's span tracer looks up must still exist, so that
deleting one fails here rather than in a traced benchmark run.
"""

import ast
import importlib
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "maskcast").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


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


def unreferenced():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLERS}
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
