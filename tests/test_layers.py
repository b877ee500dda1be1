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


def test_only_errors_gives_a_retry_exhausted_its_diagnostics():
    # every search gives up through `errors.Rejects.exhausted`, so its
    # diagnostics keep the one shape that the errors module states
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "RetryExhausted" and (len(node.args) > 1 or any(
                    k.arg in ("diagnostics", None) for k in node.keywords)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_forms_normalizes_a_projective_point():
    # callers that scale by the pivot take it from `forms.normalized_point`;
    # picking it themselves is how a point came to be normalized twice
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "forms.py":
            continue
        offenders += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if "pivot_index" in (getattr(node, "id", None), getattr(node, "attr", None),
                                           getattr(node, "name", None))]
    assert offenders == []


# module attributes that the package's users read, not the package itself
UNREAD_BY_DESIGN = {"__all__", "__version__"}


def test_every_module_level_name_is_read_in_src():
    assigned, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            assigned += [(f"{path.stem}.{name.id}", name.id) for target in targets
                         for name in ast.walk(target) if isinstance(name, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [qualified for qualified, name in assigned
            if name not in read and name not in UNREAD_BY_DESIGN] == []


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


# defaulted parameters that no call in src/ sets: `python -m waring.cli` and
# the console launcher call main() and let argparse read sys.argv
UNSET_BY_DESIGN = {"cli.main.argv"}


def _signature(fn):
    """The positional parameter names of fn and the names that carry a default."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, defaulted


def _calls(scope, skip):
    """The calls under scope, not descending into the nodes in skip."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_every_defaulted_parameter_is_set_by_a_call_in_src():
    """A default that no call overrides is a constant in disguise.

    Checked: module functions outside `waring.__all__` and the methods of
    classes outside it.  A call sets a parameter by keyword or by
    position; calling a class sets its `__init__`, `partial(fn, ...)`
    counts as a call of fn, and a call with *args or **kwargs sets every
    parameter.  An argument that forwards the caller's own defaulted
    parameter sets the callee's only if that one is set in turn.
    """
    exported = set(waring.__all__)
    functions = {}  # qualified name -> (positional, defaulted, checked)
    callees = {}  # ("name" | "attr", identifier) -> [(qualified name, bound)]
    scopes = []  # (qualified name or None for module code, node)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes.append((None, tree))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                members = [(f"{path.stem}.{node.name}", node, node.name, ("name", node.name), 0)]
            elif isinstance(node, ast.ClassDef):
                members = [(f"{path.stem}.{node.name}.{item.name}", item, node.name,
                            ("name", node.name) if item.name == "__init__"
                            else ("attr", item.name), 1)
                           for item in node.body if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for qualified, fn, owner, key, bound in members:
                functions[qualified] = (*_signature(fn), owner not in exported)
                callees.setdefault(key, []).append((qualified, bound))
                scopes.append((qualified, fn))
    skip = {fn for qualified, fn in scopes if qualified is not None}

    edges = []  # ((callee, parameter), (caller, forwarded parameter) or None)
    for caller, scope in scopes:
        own = set(functions[caller][1]) if caller else set()
        for call in _calls(scope, skip - {scope}):
            func, args = call.func, call.args
            if getattr(func, "id", None) == "partial" and args:
                func, args = args[0], args[1:]
            key = ("name", func.id) if isinstance(func, ast.Name) else (
                ("attr", func.attr) if isinstance(func, ast.Attribute) else None)
            starred = (any(isinstance(a, ast.Starred) for a in args)
                       or any(k.arg is None for k in call.keywords))
            for callee, bound in callees.get(key, []):
                positional, defaulted = functions[callee][:2]
                given = [(positional[bound + i], a) for i, a in enumerate(args)
                         if bound + i < len(positional) and not isinstance(a, ast.Starred)]
                given += [(k.arg, k.value) for k in call.keywords if k.arg]
                given += [(p, None) for p in defaulted if starred]
                edges += [((callee, p), (caller, value.id)
                           if isinstance(value, ast.Name) and value.id in own else None)
                          for p, value in given if p in defaulted]
    is_set, grew = set(), True
    while grew:
        grew = False
        for target, source in edges:
            if target not in is_set and (source is None or source in is_set):
                is_set.add(target)
                grew = True
    unset = {f"{qualified}.{p}" for qualified, (_, defaulted, checked) in functions.items()
             if checked for p in defaulted if (qualified, p) not in is_set}
    assert unset == UNSET_BY_DESIGN
