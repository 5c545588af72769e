"""Every public function, method and class in `src/adaptrobust` has a caller
outside the tests: library code, the benchmark harness or the README
"Library use" example. A name kept for another reason is listed with it."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "grad": "acceptance criterion 8 checks it against finite differences",
    "bce_loss": "acceptance criterion 8 checks it against finite differences",
    "margin_slab_mass": "acceptance criterion 11 compares it with the margin profile",
    "predict": "README semantics: the scalar predict(x) is a one-row predict_batch",
}


def names_read(node, skip=None):
    """Names and attributes read in `node`, outside any definition of `skip`."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
        return set()
    out = {node.id} if isinstance(node, ast.Name) else set()
    out |= {node.attr} if isinstance(node, ast.Attribute) else set()
    for child in ast.iter_child_nodes(node):
        out |= names_read(child, skip)
    return out


def public_defs(tree):
    """Public top-level functions and classes and their public methods; a
    subcommand body registered by `@command(...)` is called by the CLI."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            if not any(getattr(getattr(d, "func", None), "id", "") == "command"
                       for d in node.decorator_list):
                yield node.name
            yield from (m.name for m in getattr(node, "body", [])
                        if isinstance(node, ast.ClassDef) and isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_"))


def test_every_public_name_has_a_caller():
    src = [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "src").rglob("*.py")]
    readme = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    outside = names_read(ast.parse(re.search(r"```python\n(.*?)```", readme, re.DOTALL)[1]))
    for p in (ROOT / "perfbench").glob("*.py"):
        outside |= names_read(ast.parse(p.read_text(encoding="utf-8")))
    unused = sorted(name for tree in src for name in public_defs(tree)
                    if name not in ALLOWED and name not in outside
                    and not any(name in names_read(t, skip=name) for t in src))
    assert unused == []
