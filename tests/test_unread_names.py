"""Every name the `weakdap` package defines has a reader in the program.

The names are the top-level functions and classes, the names that a
top-level assignment binds and the methods (dunders left out of both), the
dataclass fields, and the attributes that `__init__` sets on `self` in the
other classes of `src/weakdap/*.py`. A read is a name or
attribute load in `perfbench/`, or in `src/weakdap` outside the body of a
name that is itself unread, or a `from ... import` of the name in
`perfbench/`; a keyword argument that sets a field is not a read, and a
dataclass method that passes `self` to `asdict` reads every field. An
`__init__` attribute is read only by an attribute load: a parameter of the
same name does not read it. The match is by name alone, so a name read under
another owner (`plan.strategy` reads every `strategy`) passes. Tests are not
readers: a name that only tests read goes, or is listed in UNREAD with its
reason.

Every parameter of a function in `src/weakdap` is loaded as a name in that
function's body, nested functions included.

Every field with a default of a config dataclass (a class whose name ends in
`Config`, or one of CONFIGS) is set outside tests: some keyword argument,
attribute store or string constant in `src/weakdap` or `perfbench/` names
it. The match is by name alone, and a string counts because `cli._given`
and `BASELINE_OPTIONS` pass field names as strings. A field that only tests
set is a constant.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weakdap"
BENCH = ROOT / "perfbench"

CONFIGS = {"GenParams", "AugmentPlan", "PromptSpec"}  # config classes not named *Config
ENTRY_POINTS = {"cli.main"}  # pyproject's [project.scripts]
UNREAD = {  # name: why it stays without a reader
    "weaklabel.planted_noise_retention": "criterion 5's noise oracle, which run.json is to report",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _dumps_self(node) -> bool:
    return any(isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "asdict"
               and [getattr(a, "id", None) for a in sub.args] == ["self"]
               for sub in ast.walk(node))


def _init_attributes(node: ast.ClassDef) -> list[str]:
    """The attributes that the class's `__init__` assigns on its first
    parameter, in order of first assignment."""
    names = []
    for member in node.body:
        if isinstance(member, ast.FunctionDef) and member.name == "__init__" and member.args.args:
            owner = member.args.args[0].arg
            names.extend(sub.attr for sub in ast.walk(member)
                         if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                         and getattr(sub.value, "id", None) == owner)
    return list(dict.fromkeys(names))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _bound_names(node) -> list[str]:
    """The names, not dunders, that a top-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
            and not _is_dunder(sub.id)]


def _reads(nodes, imports_count: bool = False) -> set[str]:
    """The names loaded in nodes; an attribute load also adds "." + its name,
    the only read of an `__init__` attribute."""
    read = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.update((node.attr, "." + node.attr))
        elif imports_count and isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _units(module: str, source: str):
    """(qualified name or None, the read that keeps it, reads) for each part
    of a module: a top-level function, a name a top-level assignment binds, a
    method, dataclass field or `__init__` attribute, the rest of a class, or a
    top-level statement that defines nothing (None: always runs)."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name, _reads([node])
            continue
        if not isinstance(node, ast.ClassDef):
            names = _bound_names(node)
            for name in names:
                yield f"{module}.{name}", name, _reads([node])
            if not names:
                yield None, None, _reads([node])
            continue
        rest = node.decorator_list + node.bases
        fields = {m.target.id for m in node.body if isinstance(m, ast.AnnAssign)} \
            if _is_dataclass(node) else set()
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = member.name
            elif isinstance(member, ast.AnnAssign) and _is_dataclass(node):
                name = member.target.id
            else:
                name = None
            if name is None or _is_dunder(name):
                rest.append(member)
            else:
                reads = _reads([member])
                yield f"{node.name}.{name}", name, reads | fields if _dumps_self(member) else reads
        if not _is_dataclass(node):
            for attr in _init_attributes(node):
                yield f"{node.name}.{attr}", "." + attr, set()
        yield f"{module}.{node.name}", node.name, _reads(rest)


def unread_names(modules: dict[str, str], bench: list[str], kept=()) -> list[str]:
    """Qualified names in modules (module name -> source) that nothing reads:
    neither the benchmark sources in bench nor the code of a name that is
    read, an entry point or in kept. Entry points are never reported."""
    units = [unit for module, source in modules.items() for unit in _units(module, source)]
    roots = ENTRY_POINTS | set(kept)
    read = set().union(*(_reads([ast.parse(source)], imports_count=True) for source in bench))
    live = None
    while True:
        grown = {i for i, (qualified, name, _) in enumerate(units)
                 if qualified is None or qualified in roots or name in read}
        if grown == live:
            break
        live = grown
        read = read.union(*(units[i][2] for i in live))
    return sorted(qualified for qualified, name, _ in units
                  if qualified and name not in read and qualified not in ENTRY_POINTS)


def unread_parameters(modules: dict[str, str]) -> list[str]:
    """`function(parameter)` for each parameter of a function (module-level,
    method or nested) that its body never loads as a name."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = args.posonlyargs + args.args + args.kwonlyargs \
                    + [a for a in (args.vararg, args.kwarg) if a is not None]
                loaded = {sub.id for stmt in child.body for sub in ast.walk(stmt)
                          if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
                found.extend(f"{prefix}{child.name}({a.arg})" for a in params
                             if a.arg not in loaded)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")

    for module, source in modules.items():
        visit(ast.parse(source), f"{module}.")
    return sorted(found)


def unset_fields(modules: dict[str, str], bench: list[str]) -> list[str]:
    """`Class.field` for each field with a default of a config dataclass in
    modules that no keyword argument, attribute store or string constant in
    modules or bench names."""
    named = set()
    for source in [*modules.values(), *bench]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.keyword) and node.arg:
                named.add(node.arg)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return sorted(f"{node.name}.{member.target.id}"
                  for source in modules.values() for node in ast.parse(source).body
                  if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                  and (node.name.endswith("Config") or node.name in CONFIGS)
                  for member in node.body
                  if isinstance(member, ast.AnnAssign) and member.value is not None
                  and member.target.id not in named)


def test_every_name_has_a_reader():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))]
    unread = unread_names(modules, bench, kept=UNREAD)
    assert unread == sorted(UNREAD), (
        f"no reader: {sorted(set(unread) - set(UNREAD))}; "
        f"listed in UNREAD but read: {sorted(set(UNREAD) - set(unread))}")


def test_check_finds_an_unread_name():
    source = ("from dataclasses import dataclass\n"
              "@dataclass\nclass Spec:\n    kept: int\n    unset: int = 0\n"
              "    def used(self): return self.kept\n    def idle(self): pass\n"
              "    def __repr__(self): return ''\n"
              "def helper(): return Spec(unset=1).used()\n"
              "def orphan(): return chained()\n"
              "def chained(): pass\n"
              "def imported(): pass\n"
              "def exempt(): return reached()\n"
              "def reached(): pass\n"
              "def main(): return started()\n"
              "def started(): pass\n")
    bench = "from cli import imported\nhelper()\n"
    assert unread_names({"cli": source}, [bench], kept=["cli.exempt"]) == [
        "Spec.idle", "Spec.unset", "cli.chained", "cli.exempt", "cli.orphan"]


def test_check_finds_an_unread_constant():
    source = ("LIMIT = 3\n"
              "UNUSED = (1, 2)\n"
              "BASE = 2\n"
              "DERIVED = BASE * 2\n"
              "SHARED: int = 5\n"
              "A, B = 1, 2\n"
              "__all__ = ['main']\n"
              "def main(): return LIMIT + A\n")
    bench = "from cli import SHARED\n"
    assert unread_names({"cli": source}, [bench]) == [
        "cli.B", "cli.BASE", "cli.DERIVED", "cli.UNUSED"]


def test_check_finds_an_unread_init_attribute():
    source = ("class Client:\n"
              "    def __init__(self, url, retries, timeout):\n"
              "        self.url = url\n"
              "        self.retries = retries\n"
              "        self.timeout, self._open = timeout, False\n"
              "        other = Client\n"
              "        other.ignored = 0\n"
              "    def send(self): return self.url, self._open\n"
              "def main(retries=3): return Client('u', retries, 1).send()\n")
    bench = "def timeout(client): return client.timeout\n"
    assert unread_names({"cli": source}, [bench]) == ["Client.retries"]


def test_asdict_of_self_reads_every_field():
    source = ("from dataclasses import asdict, dataclass\n"
              "@dataclass\nclass Report:\n    dumped: int\n"
              "    def to_json(self): return asdict(self)\n"
              "@dataclass\nclass Other:\n    lost: int\n"
              "    def to_json(self, other): return asdict(other)\n"
              "def main(): return Report(1).to_json(), Other(1).to_json(None)\n")
    assert unread_names({"cli": source}, []) == ["Other.lost"]


def test_every_config_field_is_set():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))]
    unset = unset_fields(modules, bench)
    assert unset == [], f"set by nothing but tests: {unset}"


def test_check_finds_an_unset_field():
    source = ("from dataclasses import dataclass, field\n"
              "@dataclass\nclass RunConfig:\n    path: str\n    rate: float = 0.5\n"
              "    size: int = 1\n    named: int = 2\n    stored: int = 3\n"
              "    unset: list = field(default_factory=list)\n"
              "@dataclass\nclass GenParams:\n    mode: str = 'a'\n    top: int = 1\n"
              "@dataclass\nclass Report:\n    total: int = 0\n"
              "def main(cfg):\n    cfg.stored = 4\n"
              "    return RunConfig('p', size=2), OPTIONS, {'unset ': 1}, Report()\n"
              "OPTIONS = ('named', 'mode')\n")
    bench = "def run(): return GenParams(top=2), rate\n"
    assert unset_fields({"cli": source}, [bench]) == ["RunConfig.rate", "RunConfig.unset"]


def test_every_parameter_is_read():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_parameters(modules) == []


def test_check_finds_an_unread_parameter():
    source = ("def used(a, *args, b=0, **kw): return a, args, b, kw\n"
              "def unused(a, b, *, c): return a\n"
              "class Box:\n"
              "    def method(self, x): return self\n"
              "    def closure(self, y):\n"
              "        def inner(z): return y\n"
              "        return inner\n")
    assert unread_parameters({"m": source}) == [
        "m.Box.closure(self)", "m.Box.closure.inner(z)", "m.Box.method(x)",
        "m.unused(b)", "m.unused(c)"]
