"""Every public function, method and class in `src/adaptrobust` has a caller
outside the tests: library code, the benchmark harness or the README
"Library use" example. A name kept for another reason is listed with it, and
a listed name must be public and have no such caller. Every public field of a
dataclass there is read by the same code."""
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


def parsed():
    """The modules of `src/`, and the code outside it that counts as a
    caller: `perfbench/` and the README "Library use" block."""
    src = [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "src").rglob("*.py")]
    readme = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    outside = [ast.parse(re.search(r"```python\n(.*?)```", readme, re.DOTALL)[1])]
    outside += [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "perfbench").glob("*.py")]
    return src, outside


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
    src, outside = parsed()
    called = set().union(*(names_read(t) for t in outside))
    unused = sorted(name for tree in src for name in public_defs(tree)
                    if name not in ALLOWED and name not in called
                    and not any(name in names_read(t, skip=name) for t in src))
    assert unused == []


def test_every_allowed_name_is_a_public_name_without_a_caller():
    # an entry for a name that is gone or now called would excuse its next namesake
    src, outside = parsed()
    called = set().union(*(names_read(t) for t in outside))
    public = {name for tree in src for name in public_defs(tree)}
    stale = sorted(name for name in ALLOWED if name not in public or name in called
                   or any(name in names_read(t, skip=name) for t in src))
    assert stale == []


def dataclass_fields(tree):
    """`Class.field` for each public field of each `@dataclass` class."""
    for node in ast.walk(tree):
        decorators = [getattr(d, "func", d) for d in getattr(node, "decorator_list", [])]
        if isinstance(node, ast.ClassDef) and any(getattr(d, "id", None) == "dataclass"
                                                  for d in decorators):
            yield from (f"{node.name}.{s.target.id}" for s in node.body
                        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                        and not s.target.id.startswith("_"))


def test_every_public_dataclass_field_is_read():
    # a read is a name or attribute in Load context; a keyword argument or an
    # assignment is not one
    src, outside = parsed()
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in src + outside for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    unread = sorted(f for tree in src for f in dataclass_fields(tree)
                    if f.split(".")[1] not in read)
    assert unread == []


def literal_intervals(tree):
    """(line, name, text, by check_range) of every literal interval passed to
    `check_range` (its third argument, named by its first when that is a
    literal) or to the CLI's `_check` (a keyword value, or a keyword of the
    module-level `dict(...)` a `**name` argument unpacks, named by its key)."""
    dicts = {t.id: n.value for n in tree.body if isinstance(n, ast.Assign)
             for t in n.targets if isinstance(t, ast.Name) and isinstance(n.value, ast.Call)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "check_range":
            label = getattr(node.args[0], "value", None)
            values = [(label, v) for v in node.args[2:3]]
            values += [(label, k.value) for k in node.keywords if k.arg == "interval"]
        elif name == "_check":
            values = [(k.arg, k.value) for k in node.keywords if k.arg is not None]
            values += [(v.arg, v.value) for k in node.keywords if k.arg is None
                       for v in dicts[k.value.id].keywords]
        else:
            continue
        yield from ((v.lineno, label, v.value, name == "check_range") for label, v in values
                    if isinstance(v, ast.Constant) and isinstance(v.value, str))


def all_literal_intervals():
    return [(f"{path.name}:{line}", *rest) for path in sorted((ROOT / "src").rglob("*.py"))
            for line, *rest in literal_intervals(ast.parse(path.read_text(encoding="utf-8")))]


def test_every_literal_interval_parses():
    # a typo in a rarely reached check would otherwise show only when it fires
    found = all_literal_intervals()
    bad = []
    for where, _, text, _ in found:
        m = re.fullmatch(r"[\[(](\S+), (\S+)[\])]( int)?", text)
        try:
            ok = m is not None and float(m[1]) <= float(m[2])
        except ValueError:
            ok = False
        if not ok:
            bad.append(f"{where}: {text!r}")
    assert bad == [] and len(found) >= 50


# A count is an integer: a float or a bool would fail later without naming it.
COUNTS = {"n", "m", "N", "d", "count", "probes", "epochs", "batch_size", "layer size"}
# An `inf]` end only where the math is defined at inf; elsewhere inf fails late.
CLOSED_AT_INF = {"r", "r_eps", "mass", "threshold"}


def test_every_library_count_takes_the_integer_form():
    counts = [(where, text) for where, name, text, library in all_literal_intervals()
              if library and name in COUNTS]
    assert [c for c in counts if not c[1].endswith(" int")] == [] and len(counts) >= 16


def test_every_library_seed_takes_the_integer_form():
    # a float, bool or negative seed would otherwise run as another seed or
    # fail late inside numpy without naming it
    seeds = [(where, text) for where, name, text, library in all_literal_intervals()
             if library and name == "seed"]
    assert [s for s in seeds if s[1] != "[0, inf) int"] == [] and len(seeds) >= 5


def test_an_interval_is_closed_at_inf_only_where_inf_is_defined():
    bad = [f"{where}: {name} {text!r}" for where, name, text, _ in all_literal_intervals()
           if text.removesuffix(" int").endswith("inf]") and name not in CLOSED_AT_INF]
    assert bad == []
