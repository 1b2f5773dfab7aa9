"""Source hygiene checks that need only the standard library.

No linter ships with the project, so eight rules are checked here.  Every
name a module imports must be read somewhere in that module, and only
``mechanism.py`` imports ``numbers``: every other module checks outside
numbers with its ``check_number``.  The filter stage's decision has one
source, ``protocol.decide``: outside it, ``filters.py`` and the probe
command, no module reads ``winning_pair`` or writes the 0.999 cap.  Every public top-level function or
class of ``src/dapmean`` must be read by the package, a demo, the
benchmark or a README example, unless it is on ``TESTED_ONLY``.
Every public field, property or method of such a class must be read as an
attribute by those same readers, unless it is on ``UNREAD_MEMBERS``; a
property that only its own class reads through ``self`` is unread.
``__init__.py`` is skipped by these rules because its imports are the
package's exports, not uses.  Every package name and call that README.md's
prose puts in backticks must be defined in ``src/dapmean``, and such a call
with arguments must list its callee's parameter names in order.  A row of
README.md's error table whose first column names a Python record must name
only that record's fields or parameters.

Members are matched by bare name, so a member is counted as read when any
reader loads an attribute of the same name on another object.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "dapmean").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_scanner_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "x = np.zeros(1)\n"
        "def f(s):\n"
        "    return parse(s)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: dumps"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports; relative imports are left out."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_import_scanner():
    source = "import numbers\nimport os.path as p\nfrom numpy import array\nfrom . import attacks\n"
    assert imported_modules(source) == {"numbers", "os", "numpy"}


def test_only_mechanism_imports_numbers():
    # One number check: every other module calls mechanism.check_number.
    sources = sorted((ROOT / "src" / "dapmean").glob("*.py"))
    importers = [p.name for p in sources if "numbers" in imported_modules(p.read_text())]
    assert importers == ["mechanism.py"]


# Where a probe's winning fit and the 0.999 cap on gamma_hat may appear:
# ``decide`` is the decision's one source, ``filters.py`` defines the probe,
# and ``dapmean probe`` reports one group's probe as it is.
DECISION_HOMES = {"protocol.decide", "cli._cmd_probe"}


def decision_restatements(source: str, module: str) -> list[str]:
    """``winning_pair`` attributes and 0.999 literals of a ``src/dapmean``
    module that lie outside ``filters.py`` and the ``DECISION_HOMES``
    functions."""
    if module == "filters":
        return []
    tree = ast.parse(source)
    allowed = {
        id(node)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and f"{module}.{fn.name}" in DECISION_HOMES
        for node in ast.walk(fn)
    }
    found = [
        node
        for node in ast.walk(tree)
        if id(node) not in allowed
        and (
            isinstance(node, ast.Attribute) and node.attr == "winning_pair"
            or isinstance(node, ast.Constant) and type(node.value) is float and node.value == 0.999
        )
    ]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{module} line {node.lineno}: {ast.unparse(node)}" for node in found]


def test_decision_scanner():
    source = (
        "def decide(groups):\n"
        "    return min(groups[-1].probe.winning_pair.poison_mass, 0.999)\n"
        "class R:\n"
        "    def gamma_hat(self):\n"
        "        return min(self.probe.winning_pair.poison_mass, 0.999)\n"
        "CAP = 0.999\n"
        "NOTE = '0.999'\n"
    )
    assert decision_restatements(source, "protocol") == [
        "protocol line 5: self.probe.winning_pair",
        "protocol line 5: 0.999",
        "protocol line 6: 0.999",
    ]
    assert decision_restatements(source, "bench") == [
        "bench line 2: groups[-1].probe.winning_pair",
        "bench line 2: 0.999",
        "bench line 5: self.probe.winning_pair",
        "bench line 5: 0.999",
        "bench line 6: 0.999",
    ]
    assert decision_restatements(source, "filters") == []


def test_the_decision_has_one_source():
    sources = sorted((ROOT / "src" / "dapmean").glob("*.py"))
    assert [bad for p in sources for bad in decision_restatements(p.read_text(), p.stem)] == []


# Paper constructions that no pipeline runs but the tests exercise.
TESTED_ONLY = {
    "evasion_bounds": "the paper's evasion utility bounds; c09 checks their identity",
}
READERS = sorted(
    [p for p in (ROOT / "src" / "dapmean").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py"))
)


def public_definitions(source: str) -> list[str]:
    """Top-level functions and classes whose names do not start with ``_``."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def read_names(source: str) -> set[str]:
    """Every name the code loads, bare (``f``) or as an attribute (``mod.f``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def public_members(source: str) -> list[tuple[str, str]]:
    """(class, member) for the public fields, properties and methods of
    every public top-level class."""
    members = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                members.append((cls.name, name))
    return members


def own_property_reads(tree: ast.AST) -> set[int]:
    """Ids of the ``self.p`` loads inside a class whose own ``@property`` is p."""
    own = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        props = {
            f.name
            for f in cls.body
            if isinstance(f, ast.FunctionDef)
            and any(isinstance(d, ast.Name) and d.id == "property" for d in f.decorator_list)
        }
        own |= {
            id(node)
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in props
        }
    return own


def read_attributes(source: str) -> set[str]:
    """Every attribute name the code loads (``f`` in ``obj.f``), except a
    property its own class reads through ``self``: a property only its own
    class reads is unread."""
    tree = ast.parse(source)
    own = own_property_reads(tree)
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in own
    }


def readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text()
    return [block.split("```", 1)[0] for block in text.split("```python\n")[1:]]


def test_public_name_scanner():
    assert public_definitions("def f(): pass\nclass K: pass\ndef _g(): pass\n") == ["f", "K"]
    # ``y.h = 1`` stores h: it reads y, not h.
    assert read_names("import m\nx = m.f(g)\ny.h = 1\n") == {"m", "f", "g", "y"}


def test_every_public_name_is_read():
    read = set()
    for source in [p.read_text() for p in READERS] + readme_python_blocks():
        read |= read_names(source)
    unread = {
        f"{path.stem}.{name}": name
        for path in SOURCES
        if path.parent.name == "dapmean"
        for name in public_definitions(path.read_text())
        if name not in read
    }
    assert [where for where, name in unread.items() if name not in TESTED_ONLY] == []
    # A listed name that is now read somewhere, or gone, leaves the list.
    assert sorted(set(TESTED_ONLY) - set(unread.values())) == []


# Public members that nothing reads yet, each kept for an open ROADMAP item.
UNREAD_MEMBERS = {
    "HistogramPair.log_likelihood": "items 2 and 3 score the side decision with it",
    "AggregateResult.predicted_variance": "item 3 measures it before replacing it",
    "GroupEstimate.m_hat": "item 3's trace reports it per group",
}


def test_member_scanner():
    source = (
        "class K:\n"
        "    a: int\n"
        "    _b: int\n"
        "    def f(self): pass\n"
        "    def _g(self): pass\n"
        "    @property\n"
        "    def p(self): return self.a\n"
        "class _Hidden:\n"
        "    x: int\n"
    )
    assert public_members(source) == [("K", "a"), ("K", "f"), ("K", "p")]
    # Only attribute loads count: ``k.q = 1`` stores q, and a bare ``f`` is a name.
    assert read_attributes("k.q = 1\nx = k.a\nf(k)\n") == {"a"}
    # A property read only through self in its own class is unread; a field,
    # a method, or a property read through self in another class is read.
    source = (
        "class K:\n"
        "    @property\n"
        "    def p(self): return self.a + self.f()\n"
        "    @property\n"
        "    def q(self): return self.p\n"
        "class L:\n"
        "    def g(self): return self.q\n"
    )
    assert read_attributes(source) == {"a", "f", "q"}


def test_every_public_member_is_read():
    read = set()
    for source in [p.read_text() for p in READERS] + readme_python_blocks():
        read |= read_attributes(source)
    unread = [
        f"{cls}.{name}"
        for path in SOURCES
        if path.parent.name == "dapmean"
        for cls, name in public_members(path.read_text())
        if name not in read
    ]
    assert [where for where in unread if where not in UNREAD_MEMBERS] == []
    # A listed member that is now read somewhere, or gone, leaves the list.
    assert sorted(set(UNREAD_MEMBERS) - set(unread)) == []


# Backticked calls in README.md's prose that name nothing in the package.
README_FOREIGN_CALLS = {"xfail": "pytest's marker on the gate tests"}


def readme_prose() -> str:
    """README.md without its fenced code blocks."""
    return re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)


def package_definitions() -> dict[str, dict[str, set[str]]]:
    """Per module of ``src/dapmean``: its top-level names, and the methods of
    each of its classes."""
    out = {}
    for path in (ROOT / "src" / "dapmean").glob("*.py"):
        top, methods = {}, {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top[node.name] = node
            elif isinstance(node, ast.Assign):
                top |= {t.id: node for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                top[node.target.id] = node
        for name, node in top.items():
            if isinstance(node, ast.ClassDef):
                methods[name] = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        out[path.stem] = {"top": set(top), **methods}
    return out


def unresolved_readme_names(text: str, defs: dict[str, dict[str, set[str]]]) -> list[str]:
    """Backticked ``dapmean.<module>[.<name>]`` paths that name no module or no
    top-level name of it, and backticked calls ``f(`` or ``Class.f(`` that
    name no top-level function, class or method, or no method of that class."""
    bad = []
    for path in re.findall(r"`(dapmean(?:\.\w+)+)", text):
        module, *rest = path.split(".")[1:]
        if module not in defs or rest[:1] and rest[0] not in defs[module]["top"]:
            bad.append(path)
    classes = {cls: m for d in defs.values() for cls, m in d.items() if cls != "top"}
    functions = set().union(*(d["top"] for d in defs.values()), *classes.values())
    for owner, name in re.findall(r"`(?:(\w+)\.)?(\w+)\(", text):
        if owner in classes and name not in classes[owner]:
            bad.append(f"{owner}.{name}(")
        elif not owner and name not in functions and name not in README_FOREIGN_CALLS:
            bad.append(f"{name}(")
    return bad


def test_readme_name_scanner():
    defs = {"protocol": {"top": {"run_dap", "DapResult"}, "DapResult": {"refilter"}}}
    text = (
        "`dapmean.protocol`, `dapmean.protocol.run_dap(x)`, `dapmean.protocol.gone`,"
        " `dapmean.nowhere`, `run_dap(`, `refilter(`, `gone(a)`, `DapResult.refilter(v)`,"
        " `DapResult.lost(`, `np.sum(v)`, `xfail(strict=True)`\n```\ngone(x)\n```"
    )
    assert unresolved_readme_names(re.sub(r"```.*?```", "", text, flags=re.S), defs) == [
        "dapmean.protocol.gone",
        "dapmean.nowhere",
        "gone(",
        "DapResult.lost(",
    ]


def test_readme_names_resolve():
    assert unresolved_readme_names(readme_prose(), package_definitions()) == []


def parameter_names(args: ast.arguments) -> list[str]:
    """A def's parameter names in order; a bare ``*`` names nothing."""
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def dataclass_fields(cls: ast.ClassDef) -> list[str] | None:
    """The fields a dataclass's constructor takes, in order; None for a
    class that is not a dataclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
        return None
    # ``field(init=False)`` declares a field that the constructor does not take.
    return [
        n.target.id
        for n in cls.body
        if isinstance(n, ast.AnnAssign)
        and isinstance(n.target, ast.Name)
        and (n.value is None or "init=False" not in ast.unparse(n.value))
    ]


def package_signatures() -> dict[str, list[list[str]]]:
    """Parameter names of every function, dataclass and method of
    ``src/dapmean``, under ``name``, ``module.name`` and ``Class.method``;
    a method's names leave out ``self`` or ``cls``."""
    sigs = {}
    for path in (ROOT / "src" / "dapmean").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            params = None
            if isinstance(node, ast.FunctionDef):
                params = parameter_names(node.args)
            elif isinstance(node, ast.ClassDef):
                params = dataclass_fields(node)
                for f in node.body:
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"):
                        for key in (f.name, f"{node.name}.{f.name}"):
                            sigs.setdefault(key, []).append(parameter_names(f.args)[1:])
            if params is not None:
                for key in (node.name, f"{path.stem}.{node.name}"):
                    sigs.setdefault(key, []).append(params)
    return sigs

def readme_call_mismatches(text: str, sigs: dict[str, list[list[str]]]) -> list[str]:
    """Backticked calls ``f(a, b=1)`` with arguments, whose callee ``sigs``
    knows, that do not list the callee's parameter names in order.  A call
    with a nested call among its arguments is an example, not a signature,
    and is skipped."""
    bad = []
    for callee, args in re.findall(r"`((?:\w+\.)*\w+)\(([^`()]+)\)`", text):
        key = ".".join(callee.removeprefix("dapmean.").split(".")[-2:])
        if key not in sigs:
            continue
        try:
            listed = parameter_names(ast.parse(f"def _({args}): pass").body[0].args)
        except SyntaxError:
            listed = None
        if listed not in sigs[key]:
            bad.append(f"{callee}({' '.join(args.split())})")
    return bad


def test_readme_call_scanner():
    sigs = {
        "run": [["values", "rng", "out"]],
        "protocol.run": [["values", "rng", "out"]],
        "Plan.members": [["t"]],
        "members": [["t"]],
    }
    text = (
        "`run(values, rng, *, out=None)`, `dapmean.protocol.run(values,\n  rng, out)`,"
        " `run(rng, values, out)`, `members(t)`, `Plan.members(k)`, `run(f(x), rng)`,"
        " `np.sum(a - b)`, `run()`, `run(a - b)`"
    )
    assert readme_call_mismatches(text, sigs) == [
        "run(rng, values, out)",
        "Plan.members(k)",
        "run(a - b)",
    ]


def test_readme_calls_list_their_parameters():
    assert readme_call_mismatches(readme_prose(), package_signatures()) == []


def readme_error_rows(text: str) -> list[tuple[str, list[str]]]:
    """(record, names) of each table row whose first column names a Python
    record: the first backticked name before "(Python)" and the backticked
    names after it, such as ``GroupPlan`` and its fields."""
    rows = []
    for line in text.splitlines():
        first = line.split("|")[1] if line.startswith("|") else ""
        if "(Python)" in first:
            names = re.findall(r"`([^`]+)`", first.split("(Python)")[0])
            rows.append((names[0], names[1:]))
    return rows


def readme_row_mismatches(text: str, sigs: dict[str, list[list[str]]]) -> list[str]:
    """Error-table rows whose record ``sigs`` does not know, or that name a
    field or parameter the record does not take."""
    bad = []
    for record, names in readme_error_rows(text):
        if record not in sigs:
            bad.append(record)
            continue
        taken = {name for params in sigs[record] for name in params}
        bad += [f"{record} {name}" for name in names if name not in taken]
    return bad


def test_readme_row_scanner():
    sigs = {"Plan": [["eps", "assignment"]], "Grid.sized": [["n"]], "perturb": [["v", "reps"]]}
    text = (
        "| Input | Rejected |\n"
        "|---|---|\n"
        "| `Plan` `budgets`, `assignment` (Python) | `budgets` off the ladder |\n"
        "| `Grid.sized` `n` (Python) | `n` < 16 |\n"
        "| values given to `perturb` (Python), as by `Plan` | NaN |\n"
        "| `Gone` `x` (Python) | anything |\n"
        "| `eps_list` entries | not a number |\n"
        "| `perturb` `reps`, `out` (Python) | 0 |\n"
    )
    assert readme_row_mismatches(text, sigs) == ["Plan budgets", "Gone", "perturb out"]


def test_readme_error_rows_name_their_records_fields():
    text = (ROOT / "README.md").read_text()
    assert len(readme_error_rows(text)) >= 10
    assert readme_row_mismatches(text, package_signatures()) == []
