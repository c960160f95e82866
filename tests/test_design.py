"""Guards on the package layout, most of them read with `ast` only.

The oracles stay an independent second route to every value: they import
nothing from the package, and no production module imports them. The
production modules carry no code and no keyword that only the tests reach.
No module reads the environment or keeps state in an empty module-level
container. Config has the one setting delta_scale.
"""

import ast
import dataclasses
from pathlib import Path

import primeconv
from primeconv import cli

SRC = Path(primeconv.__file__).parent
PRODUCTION = sorted(p for p in SRC.glob("*.py")
                    if p.stem not in ("oracles", "cli", "__init__"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _package_imports(path):
    """Each dotted part and each imported name of the imports of `path`
    that reach into the package: `from . import a, b` gives "", a and b."""
    imported = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "primeconv":
                imported += ((node.module or "").split(".")
                             + [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            imported += [part for a in node.names for part in a.name.split(".")
                         if a.name.split(".")[0] == "primeconv"]
    return imported


def test_oracles_import_nothing_from_the_package():
    assert not _package_imports(SRC / "oracles.py")


def test_no_production_module_imports_the_oracles():
    # the oracles are the second route to every value only while the
    # production code answers every n without them; the cli reaches them
    # for the oracle subcommand and --verify
    importers = [path.stem for path in sorted(SRC.glob("*.py"))
                 if path.stem not in ("oracles", "cli")
                 and "oracles" in _package_imports(path)]
    assert not importers, f"production modules importing oracles: {importers}"


def test_production_functions_have_a_caller():
    defined = []  # (module, qualified name, bare name)
    named = set()  # every identifier read in the production modules
    for path in PRODUCTION:
        tree = _tree(path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.stem, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(path.stem, f"{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = [f"{mod}.{qual}" for mod, qual, name in defined
              if name not in named and name not in primeconv.__all__]
    assert not unused, f"defined but never named in production: {unused}"


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_keyword_only_parameters_are_passed_in_production():
    # a keyword-only parameter that no production call site names (the cli
    # included) is a knob only the tests set; a call that forwards its own
    # **kwargs passes on the keywords its callers name, one level deep
    kwonly = []  # (module, function, parameter)
    passed = {}  # function name -> keywords named at its call sites
    forwards = []  # (enclosing function, callee) across **kwargs
    for path in PRODUCTION + [SRC / "cli.py"]:
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            kwonly += [(path.stem, fn.name, a.arg) for a in fn.args.kwonlyargs]
            own = fn.args.kwarg.arg if fn.args.kwarg else None
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call) or not _callee(call):
                    continue
                names = passed.setdefault(_callee(call), set())
                for kw in call.keywords:
                    if kw.arg is not None:
                        names.add(kw.arg)
                    elif (isinstance(kw.value, ast.Name)
                          and kw.value.id == own):
                        forwards.append((fn.name, _callee(call)))
    for outer, callee in forwards:
        passed[callee] = passed[callee] | passed.get(outer, set())
    unset = [f"{mod}.{fn}({arg}=)" for mod, fn, arg in kwonly
             if arg not in passed.get(fn, ())]
    assert not unset, f"keyword-only parameters no production call passes: {unset}"


def test_no_module_reads_the_environment():
    # every setting comes from a Config field or a CLI flag, so an
    # environment variable cannot change a result unnoticed
    reads = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [a.name for a in node.names]
            else:
                continue
            reads += [f"{path.stem}:{node.lineno} {name}" for name in names
                      if name in ("environ", "environb", "getenv", "getenvb")]
    assert not reads, f"environment reads: {reads}"


def _empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set")
            and not node.args and not node.keywords)


def test_no_module_level_empty_containers():
    # module state filled at run time, such as a hand-rolled cache, is kept
    # by functools.cache or lru_cache instead, which bound and clear it
    found = [f"{path.stem}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in _tree(path).body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             and node.value is not None and _empty_container(node.value)]
    assert not found, f"module-level empty containers: {found}"


def test_config_has_one_field():
    # the sieve cutoff is a constant and the worker count follows the
    # machine: no value depends on either, so neither is a setting
    assert [f.name for f in dataclasses.fields(primeconv.Config)] == [
        "delta_scale"]
    assert primeconv.Config().cutoff == 100_000
    for argv in (["--cutoff", "10", "pi", "5"], ["--threads", "2", "pi", "5"]):
        assert cli.main(argv) == 2, argv
