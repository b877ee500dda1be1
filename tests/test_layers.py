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
