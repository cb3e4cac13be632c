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

Every parameter with a default of a function in `src/weakdap` is passed by
some call in `src/weakdap` or `perfbench/`, and no parameter gets the same
UPPER_CASE constant or literal from every such call (a call that omits it
gives it its default). A call is matched by the name it calls, a bare name
or the last attribute, and `__init__` by its class's name; a call that
spreads `*` or `**` arguments counts as passing every parameter, with a value
of its own. A parameter that only tests set, or that is always the same, is
a constant.
"""
import ast
import re
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


def _functions(modules: dict[str, str]) -> list[tuple]:
    """(qualified name, the name its calls use, parameters) of each function
    in modules, methods and nested functions included, dunders other than
    `__init__` left out. A parameter is (name, its position in a call or None
    when only a keyword passes it, its default or None). A method's first
    parameter is left out, and `__init__` is called by its class's name."""
    found = []

    def visit(node, prefix, owner=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            visit(child, f"{prefix}{child.name}.")
            args = child.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
            params = [(a.arg, i, d) for i, (a, d) in enumerate(zip(positional, defaults))]
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            if owner is not None and not static and params:
                params = [(name, i - 1, d) for name, i, d in params[1:]]
            params += [(a.arg, None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
            if child.name == "__init__" and owner is not None:
                found.append((f"{prefix}{child.name}", owner, params))
            elif not _is_dunder(child.name):
                found.append((f"{prefix}{child.name}", child.name, params))

    for module, source in modules.items():
        visit(ast.parse(source), f"{module}.")
    return found


def _calls(sources) -> dict[str, list[ast.Call]]:
    """The calls in sources, by the name they call: a bare name or the last
    attribute."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


SPREAD = object()  # a call's `*` or `**` argument may pass any parameter


def _argument(call: ast.Call, name: str, position, default):
    """What `call` passes the parameter: the expression, the default when it
    passes none (None if there is none), or SPREAD."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None for k in call.keywords):
        return SPREAD
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    if position is not None and position < len(call.args):
        return call.args[position]
    return default


def _is_constant(node) -> bool:
    """An UPPER_CASE name or attribute, or a literal."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = getattr(node, "id", getattr(node, "attr", ""))
        return re.fullmatch(r"[A-Z][A-Z0-9_]*", name) is not None
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):
        return False
    return True


def unpassed_parameters(modules: dict[str, str], bench: list[str]) -> list[str]:
    """`function(parameter)` for each parameter with a default of a function
    in modules that no call in modules or bench passes."""
    calls = _calls([*modules.values(), *bench])
    return sorted(f"{qualified}({name})" for qualified, called, params in _functions(modules)
                  for name, position, default in params if default is not None
                  and all(_argument(call, name, position, default) is default
                          for call in calls.get(called, ())))


def constant_parameters(modules: dict[str, str], bench: list[str]) -> list[str]:
    """`function(parameter)` for each parameter of a function in modules that
    every call in modules or bench, and at least one, gives the same UPPER_CASE
    constant or literal."""
    calls = _calls([*modules.values(), *bench])
    found = []
    for qualified, called, params in _functions(modules):
        for name, position, default in params:
            values = [_argument(call, name, position, default) for call in calls.get(called, ())]
            if values and all(isinstance(v, ast.AST) and _is_constant(v) for v in values) \
                    and len({ast.dump(v) for v in values}) == 1:
                found.append(f"{qualified}({name})")
    return sorted(found)


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


def test_every_defaulted_parameter_is_passed():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))]
    unpassed = unpassed_parameters(modules, bench)
    assert unpassed == [], f"passed by nothing but tests: {unpassed}"


def test_no_parameter_is_always_one_constant():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))]
    constant = constant_parameters(modules, bench)
    assert constant == [], f"given one constant by every call: {constant}"


def test_check_finds_an_unpassed_parameter():
    source = ("def send(url, retries=3, timeout=1.0, *, verbose=False, tag=None): pass\n"
              "def spread(a, b=0): pass\n"
              "def spread_kw(a, b=0): pass\n"
              "class Client:\n"
              "    def __init__(self, url, pool=2, idle=1): pass\n"
              "    def get(self, path, cache=True):\n"
              "        def inner(x, deep=0): pass\n"
              "        return inner(path)\n"
              "    @staticmethod\n"
              "    def parse(text, strict=False): pass\n"
              "def main(args, opts):\n"
              "    send('u', 5, verbose=True)\n"
              "    spread(*args)\n"
              "    spread_kw(1, **opts)\n"
              "    Client('u', 3).get('/')\n"
              "    Client.parse('x')\n")
    bench = "def run(c): return c.get('/', cache=False), send('u', tag='t')\n"
    assert unpassed_parameters({"m": source}, [bench]) == [
        "m.Client.__init__(idle)", "m.Client.get.inner(deep)", "m.Client.parse(strict)",
        "m.send(timeout)"]


def test_check_finds_a_constant_argument():
    source = ("LIMIT = 3\n"
              "def fetch(url, limit, retries=2, mode='a'): pass\n"
              "def scale(x, factor): pass\n"
              "def spread(a, b): pass\n"
              "def unused(a): pass\n"
              "def main(args, n):\n"
              "    fetch('u', LIMIT, mode='b')\n"
              "    fetch('v', LIMIT, 2)\n"
              "    scale(n, 2.0)\n"
              "    scale(n, -1.0)\n"
              "    spread(1, 2)\n"
              "    spread(*args)\n")
    bench = "def run(): return fetch('w', limit=LIMIT)\n"
    assert constant_parameters({"m": source}, [bench]) == ["m.fetch(limit)", "m.fetch(retries)"]
