"""Checks over the package's source text rather than its behaviour."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gcartan"
# where a use of a package function or method may live: a use in tests alone
# does not keep a definition alive
SEARCHED = ("src", "demos", "perfbench", "bench")
# definitions only tests use, kept on purpose as references: each with the
# test that compares against it
TEST_REFERENCES = {
    "gram.y_pair": "test_gram.py::TestYPair::test_examples",
    "partitions.multipartitions": "test_partitions.py::TestCounting::test_u_count_matches_enumeration",
    "partitions.has_rim_hook": "test_partitions.py::TestCores::test_idempotent_and_hook_free",
    "qcartan.DynkinDiagram.classical_det": "test_qcartan.py::TestDiagrams::test_classical_dets",
    "qlaurent.LaurentPoly.bar": "test_gram.py::TestYPair::test_bar_invariance",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def test_no_assert_statements():
    # exactness checks must survive `python -O`, which strips every assert
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/gcartan: {found}"


def _used_names(node: ast.AST) -> set[str]:
    """Identifiers a node reads: names, attributes, imported names, and
    strings (the benchmark looks functions up by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _searched_modules():
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            yield path, _parse(path)


# a function, lambda or comprehension: a name it binds shadows a definition
# of the package inside it
_SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def _bound_names(scope: ast.AST) -> set[str]:
    """The names a scope binds: its parameters, and every assignment, loop,
    with, except or comprehension target and nested definition in its body
    outside nested scopes."""
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = scope.args
        out = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x}
        todo = [scope.body] if isinstance(scope, ast.Lambda) else list(scope.body)
    else:
        out, todo = set(), [g.target for g in scope.generators]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif not isinstance(node, _SCOPES):
            if isinstance(node, ast.ExceptHandler) and node.name:
                out.add(node.name)
            todo.extend(ast.iter_child_nodes(node))
    return out


def _reads(node: ast.AST, strings: bool, bound: frozenset = frozenset()):
    """(kind, identifier, line) for every read in node that may name a
    definition of the package: an attribute ("attr"), an imported name
    ("import"), a bare name that no enclosing scope binds ("name") and, where
    `strings`, a string constant ("str")."""
    if isinstance(node, _SCOPES):
        bound = bound | _bound_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield "name", node.id, node.lineno
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield "attr", node.attr, node.lineno
    elif isinstance(node, ast.alias):
        yield "import", node.name.rsplit(".", 1)[-1], node.lineno
    elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield "str", node.value, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, strings, bound)


def _top_level_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function or class, or the
    names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return []
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _public_methods(module: ast.Module):
    """(class name, method) for every public method of a top-level class."""
    for cls in module.body:
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name[0] != "_":
                    yield cls.name, fn


def test_every_top_level_definition_is_used():
    # Every function, class and module constant of src/gcartan, and every
    # public method of its classes, must be read outside itself and outside
    # tests.  What counts as a read:
    # - an attribute, or a name in an import, except the re-exports of
    #   __init__.py, which only publish a name;
    # - a bare name, unless an enclosing function, lambda or comprehension
    #   binds that name (parameter, assignment, loop or comprehension target),
    #   so a local `mult` does not keep a function `mult` alive;
    # - a string constant under perfbench/ and bench/ only, where the spans and
    #   the stage bench look functions up by name.
    # A method counts only attribute and string reads.  Its name is not tied
    # to its class: two classes that define one method name keep each other
    # alive, so a method that only its namesake's callers read passes here.
    uses: dict[str, set[tuple[Path, int]]] = {}
    attribute_uses: dict[str, set[tuple[Path, int]]] = {}
    for path, module in _searched_modules():
        strings = path.relative_to(ROOT).parts[0] in ("perfbench", "bench")
        for k, stmt in enumerate(module.body):
            if path == PACKAGE / "__init__.py" and isinstance(stmt, ast.ImportFrom):
                continue
            for kind, name, line in _reads(stmt, strings):
                uses.setdefault(name, set()).add((path, k))
                if kind in ("attr", "str"):
                    attribute_uses.setdefault(name, set()).add((path, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = _parse(path)
        for k, stmt in enumerate(module.body):
            for name in _top_level_names(stmt):
                if not uses.get(name, set()) - {(path, k)}:
                    unused.append(f"{path.stem}.{name}")
        for cls, fn in _public_methods(module):
            own = {(path, line) for line in range(fn.lineno, fn.end_lineno + 1)}
            if not attribute_uses.get(fn.name, set()) - own:
                unused.append(f"{path.stem}.{cls}.{fn.name}")
    unexpected = sorted(set(unused) - set(TEST_REFERENCES))
    assert not unexpected, f"defined in src/gcartan but used nowhere outside tests: {unexpected}"
    stale = sorted(set(TEST_REFERENCES) - set(unused))
    assert not stale, f"used outside tests now, or gone; drop from TEST_REFERENCES: {stale}"
    for name, test in TEST_REFERENCES.items():
        file, *path = test.split("::")
        node = _parse(ROOT / "tests" / file)
        for part in path:
            node = next(n for n in node.body if getattr(n, "name", None) == part)
        assert name.rsplit(".", 1)[-1] in _used_names(node), f"{test} does not use {name}"


def test_bound_names_and_strings_are_not_reads():
    # the guard's own rules, on a function that binds `mult` as a parameter,
    # `size` as a loop target and `n` as a comprehension target
    code = "def f(mult):\n    for size in part:\n        g([n for n in mult], size, 'h')\n"
    stmt = ast.parse(code).body[0]
    assert {name for _, name, _ in _reads(stmt, False)} == {"part", "g"}
    assert {name for _, name, _ in _reads(stmt, True)} == {"part", "g", "h"}


def _float_uses(path: Path) -> list[tuple[int, str]]:
    """(line, what) for every float literal, float() call, math.sqrt/math.log
    or ** 0.5 (or ** (1 / 2)) in a module."""
    banned = {"float", "sqrt", "log", "log2", "log10"}
    found = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and (
            _used_names(node) & banned
        ):
            found.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Div)):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_linalg_bounds_are_integral():
    # the determinant kernel's exactness rests on integer bounds
    found = _float_uses(PACKAGE / "linalg.py")
    assert not found, f"floating point in src/gcartan/linalg.py (line, what): {found}"


def test_snf_bounds_are_integral():
    # the local Smith form's slot width and precision cap are integer bounds:
    # a rounded width would let a carry cross a slot
    found = _float_uses(PACKAGE / "snf.py")
    assert not found, f"floating point in src/gcartan/snf.py (line, what): {found}"


def test_gram_and_qlaurent_are_float_free():
    # the Gram assembly divides exactly and exact division by Phi_m decides
    # vanishing at roots of unity: neither may round
    found = {
        name: uses
        for name in ("gram.py", "qlaurent.py")
        if (uses := _float_uses(PACKAGE / name))
    }
    assert not found, f"floating point in src/gcartan (line, what): {found}"


def test_gram_has_one_number_type():
    # the assembly carries each x-expansion as integer numerators over one
    # denominator: gram.py neither imports nor names Fraction
    module = _parse(PACKAGE / "gram.py")
    modules = {node.module for node in ast.walk(module) if isinstance(node, ast.ImportFrom)}
    found = (_used_names(module) | modules) & {"Fraction", "fractions"}
    assert not found, f"src/gcartan/gram.py names {sorted(found)}"


def test_checked_determinant_is_formula_free():
    # gram_det and laurent_det confirm the closed determinant formula and the
    # conjectured diagonals: they may not call on them
    formulas = {
        "shapovalov_det_formula",
        "twisted_det_formula",
        "det_quantized",
        "classical_det",
        "bracket_product_values",
    }
    found = {
        name: sorted(n for n in _used_names(_parse(PACKAGE / name))
                     if n in formulas or "hill" in n.lower())
        for name in ("gram.py", "linalg.py")
    }
    assert not any(found.values()), f"closed formulas referenced: {found}"


def test_field_invariants_eliminate_no_permanent_factor():
    # layer 2 reads each factor's invariants off the Smith form of [X] at v^s
    # (Cauchy-Binet for permanents): it never builds a P_s(m) to eliminate it
    module = _parse(PACKAGE / "gram.py")
    fn = next(
        node for node in module.body
        if isinstance(node, ast.FunctionDef) and node.name == "gram_field_invariants"
    )
    found = _used_names(fn) & {"permanent_matrix", "y_blocks"}
    assert not found, f"gram_field_invariants reads {sorted(found)}"


def test_one_bracket_expander():
    # every closed-form bracket product of invariants.py is expanded by
    # qlaurent.bracket_product, not by multiplying quantum integers
    found = _used_names(_parse(PACKAGE / "invariants.py")) & {"quantum_int", "quantum_factorial"}
    assert not found, f"src/gcartan/invariants.py reads {sorted(found)}"


def test_one_exact_quotient():
    # a quotient that must exist comes from qlaurent.exact_quotient: no other
    # function binds a name to divide_exact(...) and raises when it is None
    functions = [
        (f"{path.stem}.{fn.name}", fn)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(_parse(path))
        if isinstance(fn, ast.FunctionDef)
    ]
    found = []
    for name, fn in functions:
        if name == "qlaurent.exact_quotient":
            continue
        bound = {
            t.id
            for node in ast.walk(fn)
            if isinstance(node, (ast.Assign, ast.NamedExpr))
            and isinstance(node.value, ast.Call)
            and "divide_exact" in _used_names(node.value.func)
            for t in ast.walk(node)
            if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
        }
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(fn)
            if isinstance(node, ast.If)
            and ast.unparse(node.test) in {f"{x} is None" for x in bound}
            and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
        ]
    assert not found, f"divide-or-raise outside qlaurent.exact_quotient: {found}"


def test_one_gram_class():
    # one object per ([X], d): the Gram matrix holds its layout, T, both
    # sparse products and the determinant, with no second class beside it
    module = _parse(PACKAGE / "gram.py")
    classes = [node.name for node in module.body if isinstance(node, ast.ClassDef)]
    assert classes == ["GramMatrix", "BlockSum"], f"classes of gram.py: {classes}"
    products = [
        node.lineno
        for node in ast.walk(module)
        if isinstance(node, ast.FunctionDef) and node.name == "_product"
    ]
    assert len(products) == 1, f"_product defined at lines {products} of gram.py"


def test_gram_kernels_are_chosen_once():
    # the ring of [X] picks the determinant kernel: laurent_det over
    # Z[v,v^-1], _int_det_multimodular at v=1, read in GramMatrix._kron_det
    # alone, so no caller hands _kron_det a kernel its matrix already fixes
    kernels = {"laurent_det", "_int_det_multimodular"}
    reads = {}
    for stmt in _parse(PACKAGE / "gram.py").body:
        if isinstance(stmt, ast.ClassDef):
            scopes = [(f"{stmt.name}.{getattr(n, 'name', '')}", n) for n in stmt.body]
        else:
            scopes = [(getattr(stmt, "name", "<module>"), stmt)]
        for where, scope in scopes:
            for kind, name, _ in _reads(scope, False):
                if kind == "name" and name in kernels:
                    reads.setdefault(where, set()).add(name)
    assert reads == {"GramMatrix._kron_det": kernels}, reads


def test_prime_tables_are_literals():
    # import does no primality work: the prime tables of linalg.py are
    # literals of int constants (certified in tests/test_linalg.py), and no
    # statement outside a function calls anything but the tuple that packs
    # PRIMES from them by shifts
    module = _parse(PACKAGE / "linalg.py")
    values = {
        stmt.targets[0].id: stmt.value
        for stmt in module.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)
    }
    for name in ("PROTH_LADDER", "MERSENNE_EXPONENTS"):
        node = values[name]
        leaves = [n for n in ast.walk(node) if not isinstance(n, (ast.Tuple, ast.Load))]
        assert leaves and all(
            isinstance(n, ast.Constant) and type(n.value) is int for n in leaves
        ), name
    calls = [
        ast.unparse(node.func)
        for stmt in module.body
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
    ]
    assert calls == ["tuple"], calls


def _broad_handlers(node: ast.AST, where: str):
    """(enclosing function, line) of every except clause under node that
    catches Exception or BaseException, or everything, and has no bare
    `raise` to re-raise what it caught."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        if isinstance(child, ast.ExceptHandler) and (
            child.type is None or _used_names(child.type) & {"Exception", "BaseException"}
        ):
            if not any(isinstance(n, ast.Raise) and n.exc is None for n in ast.walk(child)):
                yield where, child.lineno
        yield from _broad_handlers(child, inner)


def test_one_exit_handler():
    # cli.main alone decides exit codes: one try covers the cache lookup,
    # the command and the cache store, with no helper that runs the command
    # outside it, and nothing else in the package swallows every exception
    # (a cleanup that re-raises, as DiskCache.put's, passes)
    cli = _parse(PACKAGE / "cli.py")
    runs = [node.lineno for node in ast.walk(cli)
            if isinstance(node, ast.FunctionDef) and node.name == "_run"]
    assert not runs, f"cli.py defines _run at lines {runs}"
    found = [
        f"{path.stem}.{fn}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for fn, line in _broad_handlers(_parse(path), "<module>")
    ]
    assert [name.split(":")[0] for name in found] == ["cli.main"], found


def _raw_laurent_constructions(node: ast.AST, where: str):
    """(enclosing class or function path, line) of every read of
    LaurentPoly.__new__ and every store to an attribute `_terms` under node."""
    for child in ast.iter_child_nodes(node):
        inner = f"{where}.{child.name}" if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) else where
        if isinstance(child, ast.Attribute) and (
            (child.attr == "__new__" and ast.unparse(child.value) == "LaurentPoly")
            or (child.attr == "_terms" and isinstance(child.ctx, ast.Store))
        ):
            yield inner, child.lineno
        yield from _raw_laurent_constructions(child, inner)


def test_one_raw_laurent_constructor():
    # a LaurentPoly on terms its caller computed, without the constructor's
    # checks, is built by qlaurent._owned alone; LaurentPoly.__init__ is the
    # only other place that sets _terms
    found = [
        f"{where}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where, line in _raw_laurent_constructions(_parse(path), path.stem)
    ]
    places = sorted({name.split(":")[0] for name in found})
    assert places == ["qlaurent.LaurentPoly.__init__", "qlaurent._owned"], found
    assert len(found) == 3, found


def test_one_elimination_loop():
    # snf.py has one pivot-pass loop: only _diagonalize calls _clear_column,
    # transposes a matrix by zip(*rows) or returns the stop reasons
    # "stalled" and "budget", and each dense engine calls it itself
    module = _parse(PACKAGE / "snf.py")
    scopes = {}
    for stmt in module.body:
        if isinstance(stmt, ast.ClassDef):
            scopes.update((f"{stmt.name}.{n.name}", n) for n in stmt.body
                          if isinstance(n, ast.FunctionDef))
        elif isinstance(stmt, ast.FunctionDef):
            scopes[stmt.name] = stmt
    found = {"clears": set(), "transposes": set(), "stops": set()}
    for where, fn in scopes.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id == "_clear_column" and where != "_clear_column":
                found["clears"].add(where)
            elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "zip"
                  and len(node.args) == 1 and isinstance(node.args[0], ast.Starred)):
                found["transposes"].add(where)
            elif isinstance(node, ast.Return) and node.value is not None and any(
                isinstance(c, ast.Constant) and c.value in ("stalled", "budget")
                for c in ast.walk(node.value)
            ):
                found["stops"].add(where)
    assert all(v == {"_diagonalize"} for v in found.values()), found
    for engine in ("_snf_int_dense", "snf_laurent_field", "try_diagonalize_zlaurent"):
        calls = {ast.unparse(n.func) for n in ast.walk(scopes[engine]) if isinstance(n, ast.Call)}
        assert "_diagonalize" in calls, f"{engine} does not call _diagonalize"
