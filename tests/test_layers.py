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
