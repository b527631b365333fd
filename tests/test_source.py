"""Checks on the package source itself, made on its syntax tree."""

import ast
from pathlib import Path

import structmat

PACKAGE = Path(structmat.__file__).parent

# numpy names that exist only from 2.0; pyproject.toml declares numpy>=1.24
NUMPY2_ONLY = {"vecdot", "matvec", "vecmat", "matrix_transpose", "concat",
               "permute_dims", "unstack", "cumulative_sum"}


def test_no_function_imports_in_its_body():
    # every dependency is imported once, at the top of its module
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    assert not isinstance(inner, (ast.Import, ast.ImportFrom)), (
                        f"{path.name}:{inner.lineno} imports inside {node.name}()"
                    )


def numpy_root(node):
    """True when the attribute chain `node` starts at the numpy module."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def test_no_numpy2_only_names():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and numpy_root(node):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                names = {alias.name for alias in node.names}
            else:
                continue
            assert not names & NUMPY2_ONLY, (
                f"{path.name}:{node.lineno} uses numpy-2-only {sorted(names & NUMPY2_ONLY)}"
            )


def test_ffts_are_called_through_the_numpy_fft_module():
    # every transform is looked up as np.fft.<name> when it runs, so a
    # wrapper installed on numpy.fft (a profiler, a counter) sees all of them;
    # dft.py is the one module that names np.fft, and the others call its pair
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                assert not any("fft" in alias.name for alias in node.names), where
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                assert "fft" not in module, f"{where} imports from {module}"
                assert not any(alias.name == "fft" for alias in node.names), where
            elif (isinstance(node, ast.Attribute) and node.attr == "fft"
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                parent = parents.get(node)
                assert isinstance(parent, ast.Attribute) and parent.value is node, (
                    f"{where} uses np.fft other than as np.fft.<name>"
                )
                assert path.name == "dft.py", f"{where} names np.fft outside dft.py"


def test_every_transform_is_a_forward_or_inverse_call():
    # so a trace of dft.forward and dft.inverse sees every transform, dft()
    # and idft() included: np.fft.<name> is named only inside those two
    tree = ast.parse((PACKAGE / "dft.py").read_text(encoding="utf-8"))
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name in ("forward", "inverse")
              for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fft" and numpy_root(node.value)):
            assert id(node) in inside, (
                f"dft.py:{node.lineno} calls np.fft.{node.attr} outside forward and inverse"
            )


def module_imports(tree):
    """(bound name, node) of every import at the top level of a module."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node


def declared_all(tree):
    """The names listed in a module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_module_imports_are_used():
    # __init__.py imports to re-export; every other module uses what it imports
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = declared_all(tree)
        for name, node in module_imports(tree):
            assert name in used or name in exported, (
                f"{path.name}:{node.lineno} imports {name} and never uses it"
            )


def test_cli_solves_through_the_one_route():
    # how a system is solved is decided in solvers._solve, not in the CLI;
    # `bench` times levinson_solve and `info` reports _solver_size
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("solvers")
                for alias in node.names}
    assert imported <= {"_solve", "_solver_size", "levinson_solve"}, sorted(imported)
    assert "_solve" in imported


def test_solvers_reach_structured_operands_through_their_classes():
    # a circulant or Toeplitz operand's spectrum is stored behind its class:
    # the solvers divide by M.solve, multiply by T._products and read no
    # stored spectrum, so a change of storage format stays in those classes
    tree = ast.parse((PACKAGE / "solvers.py").read_text(encoding="utf-8"))
    spectral = {"spectral_apply", "entries_of", "spectrum_of"}
    for node in ast.walk(tree):
        where = f"solvers.py:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert not names & spectral, f"{where} imports {sorted(names & spectral)}"
        elif isinstance(node, ast.Name):
            assert node.id not in spectral, f"{where} calls {node.id}"
        elif isinstance(node, ast.Attribute):
            assert node.attr not in spectral | {"ev", "cev", "_spec", "_spectrum"}, (
                f"{where} reads .{node.attr}"
            )
