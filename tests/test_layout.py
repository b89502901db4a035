"""The package holds code that runs.

Every function and method defined at the top level of a `src/mtpspec`
module, or in one of its classes, must have a caller: code in another
package module or function (`__init__.py` aside, and not its own body)
that names it, or any file under `perfbench/`, which also names what it
traces by string. Names are matched as identifiers and attribute names,
so this is a static scan; dunder methods run implicitly and are skipped.
Reference code that only tests use lives in `tests/oracles.py`.

A weight or table has one name: no property may only return an attribute
of `self` (`return self.main.rope`), which would give it a second one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mtpspec"

# public entry points with no caller inside the package, each on purpose
ALLOWED = {
    "bench.load_report_csv": "reads the CSV report the CLI writes",
    "specdec.read_round_log": "reads the round logs the CLI writes",
    "vocab.load_frequency_table": "reads the frequency tables the CLI writes",
    "tensor.grad_check": "the finite-difference harness every gradient check runs",
    "training.mtp_training_loss": "the public one-batch training objective",
}

# properties that only return an attribute of `self`, each on purpose
ALLOWED_ALIASES = {
    "tensor.Tensor.shape": "mirrors ndarray.shape, so code takes a Tensor or an array",
    "tensor.Tensor.size": "mirrors ndarray.size, so code takes a Tensor or an array",
}


def _names(tree, strings: bool):
    """(line, name) for every identifier and attribute name in `tree`, and
    every string constant when `strings` is set."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def uncalled() -> list[str]:
    """`module.name` or `module.Class.name` of every definition with no caller."""
    definitions, mentions = [], []  # (module, qualified name, node); (path, line, name)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                definitions.append((path, node.name, node))
            elif isinstance(node, ast.ClassDef):
                definitions += [(path, f"{node.name}.{m.name}", m) for m in node.body
                                if isinstance(m, ast.FunctionDef)]
        mentions += [(path, line, name) for line, name in _names(tree, strings=False)]
    outside = {name for path in (ROOT / "perfbench").rglob("*.py")
               for _, name in _names(ast.parse(path.read_text(encoding="utf-8")), strings=True)}
    out = []
    for path, qualname, node in definitions:
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or name in outside:
            continue
        if not any(n == name and not (p == path and node.lineno <= line <= node.end_lineno)
                   for p, line, n in mentions):
            out.append(f"{path.stem}.{qualname}")
    return out


def test_every_function_has_a_caller():
    extra = [name for name in uncalled() if name not in ALLOWED]
    assert not extra, (f"{len(extra)} function(s) in src/mtpspec with no caller in the "
                       f"package or perfbench/: {', '.join(extra)}")


def test_allowlist_names_only_uncalled_functions():
    stale = sorted(set(ALLOWED) - set(uncalled()))
    assert not stale, f"allowlisted but called or gone: {', '.join(stale)}"


def _is_self_attribute(node) -> bool:
    """Whether `node` is `self.a`, `self.a.b`, ..."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def aliases() -> list[str]:
    """`module.Class.name` of every property whose body, docstring aside, only
    returns an attribute of `self`."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list)):
                    continue
                body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
                if (len(body) == 1 and isinstance(body[0], ast.Return)
                        and isinstance(body[0].value, ast.Attribute)
                        and _is_self_attribute(body[0].value)):
                    out.append(f"{path.stem}.{cls.name}.{fn.name}")
    return out


def test_no_property_only_renames_an_attribute():
    extra = [name for name in aliases() if name not in ALLOWED_ALIASES]
    assert not extra, (f"{len(extra)} propert(ies) in src/mtpspec only return an attribute of "
                       f"self, a second name for it: {', '.join(extra)}")


def test_alias_allowlist_names_only_aliases():
    stale = sorted(set(ALLOWED_ALIASES) - set(aliases()))
    assert not stale, f"allowlisted but not an alias or gone: {', '.join(stale)}"
