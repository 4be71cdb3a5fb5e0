"""The Options rule: the library has no parameter that only tests set.

Every defaulted parameter of a public function or method in src/sparsecf
must be set by some call in src/sparsecf or bench/. A default that no
caller overrides is a constant spelled as a knob: it belongs in a module
constant, or, where a test needs another value, the parameter is required.

The same rule holds for the package front: sparsecf.__all__ names what
src/sparsecf and bench/ import from the top-level package, plus the run's
entry points. Every other name is imported from the module that defines it.

And for code itself: every function, class and method defined in
src/sparsecf is named by some code in src/sparsecf or bench/. One that only
tests reach is dead code kept alive by its tests.

And for files: in trainer.py, one function writes the run directory.
"""

import ast
from pathlib import Path

import sparsecf

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sparsecf"

# (module, function, parameter) seams that only tests set, each with its reason
SEAMS = {
    # gate 01 checks the active-entry budget at every snapshot of a run
    ("trainer", "train", "snapshot_hook"),
    # tests run the CLI in process with their own arguments
    ("cli", "main", "argv"),
}

# names the front exports that no file in src/sparsecf or bench/ imports from
# it: a library user configures a run, trains it on a loaded split and
# catches its abort
ENTRY_POINTS = {"RunConfig", "TrainingAborted", "train", "load_dataset"}


def _sources():
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _front_names():
    """Names that files in src/sparsecf or bench/ take from the top-level
    package, by import or as an attribute, skipping its submodules."""
    submodules = {path.stem for path in PACKAGE.glob("*.py")}
    names = set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                from_front = node.module == "sparsecf" and node.level == 0
                from_front |= node.module is None and node.level == 1 and path.parent == PACKAGE
                if from_front:
                    names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "sparsecf" and not node.attr.startswith("__"):
                    names.add(node.attr)
    return names - submodules


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter, position among a call's arguments or None) of
    each defaulted parameter of a public module-level function or method
    of a module-level class."""
    scopes = [(tree.body, False)]
    scopes += [(node.body, True) for node in tree.body if isinstance(node, ast.ClassDef)]
    for body, is_method in scopes:
        for fn in body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            # a call through an instance or the class does not pass self or cls
            shift = 1 if is_method else 0
            for i, arg in enumerate(positional[first:], first):
                yield fn.name, arg.arg, i - shift
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield fn.name, arg.arg, None


def _calls():
    """(callee name, call, parameter names of the enclosing function) of
    every call in the package and the benchmark."""
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(tree, set())]
        while scopes:
            node, params = scopes.pop()
            for child in ast.iter_child_nodes(node):
                inner = params
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    a = child.args
                    inner = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    yield name, child, params
                scopes.append((child, inner))


def _argument(call: ast.Call, param: str, position):
    """The expression call passes for param, None when it passes none, or
    ... when a * or ** argument may pass it unseen, since the names a
    mapping holds cannot be read from the call."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    if position is not None and position < len(call.args):
        if any(isinstance(a, ast.Starred) for a in call.args[: position + 1]):
            return ...
        return call.args[position]
    unpacked = any(kw.arg is None for kw in call.keywords)
    unpacked |= any(isinstance(a, ast.Starred) for a in call.args)
    return ... if unpacked else None


def _sets(value, param: str, params: set) -> bool:
    """Whether a call passing value for param sets it. A caller that
    forwards its own parameter of the same name leaves the choice to its
    callers."""
    if value is None or value is ...:
        return False
    return not (isinstance(value, ast.Name) and value.id == param and param in params)


def test_every_defaulted_parameter_is_set_by_some_caller():
    calls = {}
    for name, call, params in _calls():
        calls.setdefault(name, []).append((call, params))
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn, param, position in _defaulted_parameters(tree):
            if (path.stem, fn, param) in SEAMS:
                continue
            if not any(_sets(_argument(call, param, position), param, params)
                       for call, params in calls.get(fn, [])):
                unset.append(f"{path.stem}.{fn}({param}=...)")
    assert not unset, f"defaulted parameters that no caller sets: {unset}"


def test_the_package_front_exports_what_its_callers_import():
    exported = sparsecf.__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) == _front_names() | ENTRY_POINTS
    unresolved = [name for name in exported if not hasattr(sparsecf, name)]
    assert not unresolved, f"__all__ names that sparsecf does not define: {unresolved}"


def _definitions(tree: ast.Module):
    """Names of a module's module-level functions and classes, and of the
    methods of those classes other than dunder methods, which Python calls
    by protocol."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not (
                        fn.name.startswith("__") and fn.name.endswith("__")):
                    yield fn.name


def test_every_definition_is_used_outside_the_tests():
    used = set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
              if name not in used]
    assert not unused, f"definitions that no code in src/sparsecf or bench/ names: {unused}"


# calls that write or create files or directories
FILE_WRITERS = {"save_checkpoint", "write_csv", "_write_split_manifest", "write_text",
                "write_bytes", "open", "mkdir", "touch", "unlink"}
# the one writer of a run directory, and the CSV writer it calls
RUN_DIR_WRITERS = {"_write_run_dir", "write_csv"}


def test_only_the_run_directory_writer_writes_files():
    """A run directory has one writer: in trainer.py, no function but
    _write_run_dir (and write_csv, which it calls) writes a file."""
    tree = ast.parse((PACKAGE / "trainer.py").read_text(encoding="utf-8"))
    owners = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            owners += [(f"{node.name}.{getattr(item, 'name', '')}", item) for item in node.body]
        else:
            owners.append((getattr(node, "name", "<module>"), node))
    stray = []
    for owner, node in owners:
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FILE_WRITERS and owner not in RUN_DIR_WRITERS:
                    stray.append(f"{owner}: {name} (line {call.lineno})")
    assert not stray, f"file writes outside the run directory's writer: {stray}"
