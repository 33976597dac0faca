"""Source hygiene, read from the syntax trees: no module in src/ or tests/
imports a name it never uses, every module-level function and class in
src/ is referenced from src/, tests/ or bench/, every defaulted parameter
of a function in src/ is passed at some call, no code in src/ decides an
identity by comparing `.name` attributes or reads an instance's
`.__dict__`, a module in src/ imports inside a function only what it
could not import at module level, no index machine in src/ is given
both its index law and its point action, no search in witnesses.py is
given a hand-written point action, witnesses.py starts no run of H
outside the explorer, the row normal form is decided in points alone,
and so is the census of a name's zeros and nonzeros, by one walk."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _modules(*dirs) -> dict:
    return {path: ast.parse(path.read_text())
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))}


def _names(node):
    """The names a node reads: bare names, attributes and imported aliases."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]


def test_no_unused_imports():
    unused = []
    for path, tree in _modules("src", "tests").items():
        if path.name == "__init__.py":
            continue   # a package's __init__ re-exports what it imports
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    assert unused == []


def test_every_src_definition_is_referenced():
    modules = _modules("src", "tests", "bench")
    readers: dict = {}
    for path, tree in modules.items():
        for i, top in enumerate(tree.body):
            for name in _names(top):
                readers.setdefault(name, set()).add((path, i))
    unreferenced = [
        f"{path.relative_to(ROOT)}: {node.name}"
        for path, tree in modules.items() if (ROOT / "src") in path.parents
        for i, node in enumerate(tree.body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        # a definition's own body does not count as a reference to it
        and not readers.get(node.name, set()) - {(path, i)}
    ]
    assert unreferenced == []


def test_no_name_comparisons_in_src():
    """Problems are identified by their keys; a name is only displayed."""
    compared = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _modules("src").items()
        for node in ast.walk(tree) if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(isinstance(side, ast.Attribute) and side.attr == "name"
                for side in [node.left, *node.comparators])
    ]
    assert compared == []


def test_no_dict_reads_in_src():
    """Memoized facts live in a declared slot (points.fact): a census kept
    through a point's __dict__ made the suite's lpo-only checks about a
    fifth slower."""
    read = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _modules("src").items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__dict__"
    ]
    assert read == []


def _package_imports(path, nodes) -> set:
    """The package modules that import statements among nodes name."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module)
            elif node.level == 1:
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("weihrauchlab."):
                out.add(node.module.split(".")[1])
    return out


def test_function_local_imports_are_circular_only():
    """A function-local import is kept only where the module-level form
    would close an import cycle: the imported module reaches this one
    through module-level imports."""
    modules = {path.stem: (path, tree)
               for path, tree in _modules("src/weihrauchlab").items()}
    top = {name: _package_imports(path, tree.body)
           for name, (path, tree) in modules.items()}

    def reaches(start, goal):
        seen, todo = set(), [start]
        while todo:
            m = todo.pop()
            if m == goal:
                return True
            if m not in seen:
                seen.add(m)
                todo.extend(top.get(m, ()))
        return False

    local = []
    for name, (path, tree) in modules.items():
        # an import in a nested function is walked once per enclosing one
        nested = {node.lineno: node for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)
                  if isinstance(node, (ast.Import, ast.ImportFrom))}
        for node in nested.values():
            targets = _package_imports(path, [node])
            if not targets or not all(reaches(t, name) for t in targets):
                local.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert local == []


def test_no_new_hand_written_machines():
    """Every machine is built by a constructor in machines.py, which gives
    it its view: no module outside machines.py calls Machine(...)."""
    built = [
        f"{path.stem}.{top.name}"
        for path, tree in _modules("src").items() if path.name != "machines.py"
        for top in tree.body for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "Machine"
    ]
    assert built == []


def test_each_shuffle_is_said_once():
    """An index_machine call in src/ gives its index law (src) or its
    point action (rows= or point=), never both: a machine given no src
    reads it off its action, so one statement of the shuffle serves as
    machine and mirror."""
    both = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _modules("src").items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "index_machine"
        and (len(node.args) > 1 or any(k.arg == "src" for k in node.keywords))
        and (len(node.args) > 2
             or any(k.arg in ("rows", "point") for k in node.keywords))
    ]
    assert both == []


def test_each_search_is_said_once():
    """A search of witnesses.py that has a point action is a
    search_machine, whose action is its own law at the name's first hit:
    no stream_machine call there passes point=."""
    tree = ast.parse((ROOT / "src/weihrauchlab/witnesses.py").read_text())
    mirrored = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "stream_machine"
        and (len(node.args) > 2 or any(k.arg == "point" for k in node.keywords))
    ]
    assert mirrored == []


def test_every_run_of_H_goes_through_the_explorer():
    """witnesses.py names neither machines.Run nor output_stream: a check
    starts no run of H of its own, so inclusion and exploration share
    each name's runs through ValueSet.explore."""
    tree = ast.parse((ROOT / "src/weihrauchlab/witnesses.py").read_text())
    assert {"Run", "output_stream"} & set(_names(tree)) == set()


def test_row_normal_form_is_decided_in_points():
    """Row reads take any point, so nothing in src/ or tests/ defines or
    reads a rows_of, and normalize is called in src/ only by points and
    the decoders of spaces."""
    named = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _modules("src", "tests").items()
        for node in ast.walk(tree)
        if "rows_of" in (getattr(node, key, None) for key in ("id", "attr", "name"))
    ]
    callers = {
        f"{path.stem}.{top.name}"
        for path, tree in _modules("src").items() if path.name != "points.py"
        for top in tree.body for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "normalize"
    }
    assert named == []
    assert callers == {"spaces.decode_clopen", "spaces.decode_dyadic"}


def test_zeros_and_nonzeros_are_found_by_one_census_walk():
    """min_zero, exists_zero, nonzero_census and all_zero_on_progression
    read one census, so nothing in src/ or tests/ defines or reads the
    separate zero search _min_hit."""
    named = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _modules("src", "tests").items()
        for node in ast.walk(tree)
        if "_min_hit" in (getattr(node, key, None) for key in ("id", "attr", "name"))
    ]
    assert named == []


def _defaulted_parameters(tree):
    """(callee name, defaulted parameters) for every module-level function
    and method of a module that has some; each defaulted parameter is
    (name, position, None for keyword-only).  A method is called without
    its first parameter, an __init__ by its class's name."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            defs = [(node, top) for node in top.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs = [(top, None)]
        else:
            continue
        for fn, cls in defs:
            args = fn.args
            positional = args.posonlyargs + args.args
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list)
            first = len(positional) - len(args.defaults)
            defaulted = [(a.arg, i - bound) for i, a in enumerate(positional)
                         if i >= first]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                        args.kw_defaults)
                          if d is not None]
            callee = cls.name if cls is not None and fn.name == "__init__" else fn.name
            if defaulted:
                yield callee, defaulted


def test_every_default_is_set_somewhere():
    """A defaulted parameter of a module-level function or method in src/
    is passed, by position or by keyword, at some call in src/, tests/ or
    bench/: a default that no call sets is a constant.  Calls are matched
    by the callee's name, and a call with *args or **kwargs passes
    everything it could.  A nested function's defaults, closure captures
    such as `def run(r, p=p)`, are not parameters of this kind."""
    positions: dict = {}    # callee name -> the most positional arguments
    keywords: dict = {}     # callee name -> the keywords passed
    everything = set()      # callee names called with *args or **kwargs
    for tree in _modules("src", "tests", "bench").values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                everything.add(name)
            positions[name] = max(positions.get(name, 0), len(node.args))
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    never = [
        f"{path.relative_to(ROOT)}: {callee}({arg})"
        for path, tree in _modules("src").items()
        for callee, defaulted in _defaulted_parameters(tree)
        if callee not in everything
        for arg, position in defaulted
        if arg not in keywords.get(callee, ())
        and (position is None or position >= positions.get(callee, 0))
    ]
    assert never == []
