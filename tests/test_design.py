"""Source-level guards on the package layout, read with `ast` only.

The oracles stay an independent second route to every value, and the
production modules carry no code that only the tests reach.
"""

import ast
from pathlib import Path

import primeconv

SRC = Path(primeconv.__file__).parent
PRODUCTION = sorted(p for p in SRC.glob("*.py")
                    if p.stem not in ("oracles", "cli", "__init__"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_oracles_import_nothing_from_the_package():
    imported = []
    for node in ast.walk(_tree(SRC / "oracles.py")):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "primeconv":
                imported.append(node.module or ".")
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names
                         if a.name.split(".")[0] == "primeconv"]
    assert not imported


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
