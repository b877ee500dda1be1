import ast
from pathlib import Path

import waring

SRC = Path(waring.__file__).parent


def test_no_module_imports_another_modules_private_names():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


# kept without a caller in src/: the benchmark traces poly_gcd and exact_solve,
# argparse calls _Parser.error, and AvoidanceSet.from_points builds the binary
# avoided sets of library callers.  cli.main, the console entry point, needs no
# entry: `python -m waring.cli` calls it.
UNCALLED_BY_DESIGN = {"roots.poly_gcd", "linalg.exact_solve", "cli._Parser.error",
                      "avoidance.AvoidanceSet.from_points"}


def test_every_function_is_named_elsewhere_in_src():
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{path.stem}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    uncalled = {qualified for qualified, name in defined if name not in named}
    assert uncalled == UNCALLED_BY_DESIGN
