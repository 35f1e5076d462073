"""Guard against code that nothing calls.

Every top-level function and class in ``src/plhomeo`` must be referenced by
name from ``src/`` outside its own body, every imported name in ``src/``
and ``tests/`` must be used in the module that imports it, every field of a dataclass must be read
as an attribute somewhere in ``src/``, every parameter of a function or
lambda must be read in its body, and every parameter with a default must
be set by some call in ``src/``: a default that no caller overrides is a
knob nothing turns.  Where a line crosses the edge of a polygon is
computed in ``geom`` alone, by one integer kernel, and ``geom``'s line
kernels take and return homogeneous integer points; of the functions
that the benchmark's tracer counts, ``clip_convex`` calls only
``normalize_poly``.  Every function that ``bench/tracer.py``
traces by name is still defined in its module, and every name that
``bench/run.py`` and ``bench/workloads.py`` read from the package is still
there.  A cell is located by a
point only to evaluate the map there, and the overlay box-tests and
measures areas on integers, as the equivariant complex keys, acts and
cuts on them, and an affine chart map is built on integers.  Every import
in ``src/`` is at module level.  A check's verdict is a return value,
never stored on the record checked.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "plhomeo"
TRACER = TESTS.parent / "bench" / "tracer.py"

# map_equal is kept for bench/tracer.py, which traces maps.map_equal by
# name; the verifier takes its verdict from first_disagreement alone.
ALLOWED_UNREFERENCED = {"map_equal"}

# bench/test_bench.py reads plhomeo.cli.compose and plhomeo.disc.compose
# to check that its tracer patches the name in every module that imports it.
ALLOWED_UNUSED_IMPORTS = {("cli", "compose"), ("disc", "compose")}

# cli.main is the entry point: the tests and bench/ call it with an argv
# list, and the console script calls it without one.
ALLOWED_UNSET_DEFAULTS = {"cli.main.argv"}


def _modules(root=SRC):
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(root.glob("*.py"))}


def _used_names(root):
    out = Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def test_every_top_level_def_is_referenced():
    defs = []
    total = Counter()
    for name, tree in _modules().items():
        for node in tree.body:
            used = _used_names(node)
            total.update(used)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((name, node.name, used))
    unreferenced = [f"{module}.{fn}" for module, fn, own in defs
                    if total[fn] == own[fn] and fn not in ALLOWED_UNREFERENCED]
    assert unreferenced == []


def test_no_unused_imports():
    unused = []
    for name, tree in {**_modules(), **_modules(TESTS)}.items():
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used and \
                            (name, bound) not in ALLOWED_UNUSED_IMPORTS:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def _is_dataclass(node):
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    fields, read = [], set()
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [(f"{name}.{node.name}", item.target.id)
                           for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name)]
    unread = [f"{cls}.{field}" for cls, field in fields if field not in read]
    assert unread == []


def test_every_parameter_is_read():
    unread = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs \
                + [p for p in (a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            label = getattr(node, "name", "<lambda>")
            unread += [f"{name}.{label}.{p.arg}" for p in params
                       if p.arg not in read]
    assert unread == []


def test_every_default_is_set_by_a_caller():
    """A defaulted parameter counts as set when some call passes a keyword
    of its name, or enough positional arguments to a function of its
    name."""
    inf = float("inf")
    keywords, positional = set(), Counter()
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                keywords.update(k.arg for k in node.keywords)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                positional[name] = max(positional[name],
                                       inf if starred else len(node.args))
    unset = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            params = a.posonlyargs + a.args
            first = len(params) - len(a.defaults)
            # each defaulted parameter, with the positional count reaching it
            defaulted = [(p.arg, i + 1) for i, p in enumerate(params)
                         if i >= first] \
                + [(p.arg, inf) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                   if d is not None]
            unset += [f"{module}.{node.name}.{arg}" for arg, reach in defaulted
                      if arg not in keywords and positional[node.name] < reach]
    assert [u for u in unset if u not in ALLOWED_UNSET_DEFAULTS] == []


def test_edge_crossings_are_computed_in_geom():
    """No ``v / (v - w)`` outside geom.py: the parameter where a line
    crosses an edge, from its values v and w at the edge's ends."""
    found = []
    for name, tree in _modules().items():
        if name == "geom":
            continue
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.BinOp) and \
                        isinstance(node.op, ast.Div) and \
                        isinstance(node.right, ast.BinOp) and \
                        isinstance(node.right.op, ast.Sub) and \
                        ast.dump(node.right.left) == ast.dump(node.left):
                    found.append(f"{name}.{getattr(top, 'name', '?')}")
    assert found == []


def _calls(node):
    """The names that node calls, as ``f(...)`` or ``x.f(...)``."""
    return {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            for n in ast.walk(node) if isinstance(n, ast.Call)}


def test_line_kernels_run_on_integer_points():
    """``line_points``, ``clip_halfplane``, the ``_halfplane`` step behind
    it, ``split_convex`` and ``_crossing`` take and return homogeneous
    integer points: none calls ``Fraction``, ``Q``, ``hom`` or
    ``frac_poly``, and geom defines no Fraction ``cross``.
    Of the functions that ``bench/tracer.py`` traces, ``clip_convex``
    calls only ``normalize_poly``, once on its result: each traced call
    is a span, so a call to ``clip_halfplane`` per edge line would add a
    span per half-plane step (over 16 000 ``clip_convex`` calls per
    ``free`` pass) to every ``--trace 1`` run."""
    defs = {top.name: top for top in _modules()["geom"].body
            if isinstance(top, ast.FunctionDef)}
    kernels = ("line_points", "clip_halfplane", "_halfplane", "split_convex",
               "_crossing")
    assert set(kernels) <= set(defs)
    assert "cross" not in defs
    fractional = {"Fraction", "Q", "hom", "frac_poly"}
    assert [f"{k}: {c}" for k in kernels
            for c in sorted(_calls(defs[k]) & fractional)] == []
    traced = {fn for _, funcs, _ in _tracer().GROUPS.values()
              for fn in funcs}
    assert _calls(defs["clip_convex"]) & traced == {"normalize_poly"}


def test_cells_are_located_only_to_evaluate():
    """``maps.locate_cell`` has no caller in ``src/`` but ``maps.evaluate``:
    the cell a piece lies in, and its affine map, are handed on by the
    construction that made the piece, not found again by point location."""
    callers = set()
    for name, tree in _modules().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "locate_cell" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    callers.add(f"{name}.{getattr(top, 'name', '?')}")
    assert callers == {"maps.evaluate"}


def test_overlay_box_tests_and_areas_are_on_integers():
    """``maps.compose``, ``maps._mismatches`` and ``maps.locate_cell`` read
    their boxes from the map's integer ``BoxIndex`` and measure areas on
    integers: none calls the Fraction kernels ``poly_bbox``,
    ``bbox_overlap`` or ``area2``.  ``maps.inverse``, ``maps.follow`` and
    ``maps._edge_image_consistency`` read the points and images that the
    index holds: none calls ``area2`` or ``integer_charts``."""
    fractional = {"poly_bbox", "bbox_overlap", "area2"}
    wanted = {"compose": fractional, "_mismatches": fractional,
              "locate_cell": fractional,
              "inverse": {"area2", "integer_charts"},
              "follow": {"area2", "integer_charts"},
              "_edge_image_consistency": {"area2", "integer_charts"}}
    found, calls = set(), []
    for top in _modules()["maps"].body:
        if isinstance(top, ast.FunctionDef) and top.name in wanted:
            found.add(top.name)
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or \
                        getattr(node.func, "attr", None)
                    if name in wanted[top.name]:
                        calls.append(f"{top.name}: {name}")
    assert found == set(wanted)
    assert calls == []


def test_complex_keys_acts_and_cuts_on_integers():
    """``eqcomplex._index_complex``, ``_build_action`` and ``_first_cut``,
    and ``sectors.components``, which reads the index, call none of the
    Fraction keys ``mod1``, ``_edge_key`` and ``poly_key``, nor
    ``centroid``: the complex is indexed on integer points, its cells'
    vertex and edge ids are handed on, and the cuts box-test on
    integers."""
    fractional = {"mod1", "_edge_key", "poly_key", "centroid"}
    wanted = {("eqcomplex", "_index_complex"), ("eqcomplex", "_build_action"),
              ("eqcomplex", "_first_cut"), ("sectors", "components")}
    found, calls = set(), []
    for name, tree in _modules().items():
        for top in tree.body:
            if (name, getattr(top, "name", None)) not in wanted:
                continue
            found.add((name, top.name))
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    fn = getattr(node.func, "id", None) or \
                        getattr(node.func, "attr", None)
                    if fn in fractional:
                        calls.append(f"{name}.{top.name}: {fn}")
    assert found == wanted
    assert calls == []


def test_affine_constructors_build_no_fraction():
    """``Affine.inverse``, ``Affine.compose_after``, ``affine_from_pairs``,
    ``isometry_affine`` and the ``_canonical`` form they share build the
    seven integers directly: none calls ``Fraction`` or ``Q``."""
    wanted = {"Affine.inverse", "Affine.compose_after", "affine_from_pairs",
              "isometry_affine", "_canonical"}
    defs = {}
    for top in _modules()["suspension"].body:
        if isinstance(top, ast.ClassDef) and top.name == "Affine":
            defs.update((f"Affine.{node.name}", node) for node in top.body
                        if isinstance(node, ast.FunctionDef))
        elif isinstance(top, ast.FunctionDef):
            defs[top.name] = top
    calls = [f"{name}: {node.func.id}" for name in sorted(wanted & set(defs))
             for node in ast.walk(defs[name])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("Fraction", "Q")]
    assert calls == []
    assert wanted <= set(defs)


def test_model_maps_come_from_the_model_isometry():
    """``isometry_affine`` is called only in conjugacy.py, where
    ``ModelIsometry.affine`` names the model's map, and in eqcomplex.py for
    integer chart shifts: every layout takes its map from the isometry of
    its certificate."""
    callers = set()
    for name, tree in _modules().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "isometry_affine" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    callers.add(f"{name}.{getattr(top, 'name', '?')}")
    assert sorted(c for c in callers if c.split(".")[0]
                  not in ("conjugacy", "eqcomplex")) == []


def test_no_function_local_imports():
    """No import cycle in ``src/`` needs an import inside a function or a
    class, and one there hides what its module stands on."""
    local = []
    for name, tree in _modules().items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                local += [f"{name}.{top.name}" for node in ast.walk(top)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


def test_verdicts_are_return_values():
    """No attribute ``exact`` or ``witness`` is assigned in ``src/``: a
    check returns its witness instead of marking what it checked."""
    stores = []
    for name, tree in _modules().items():
        for top in tree.body:
            stores += [f"{name}.{getattr(top, 'name', '?')}.{node.attr}"
                       for node in ast.walk(top)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Store)
                       and node.attr in ("exact", "witness")]
    assert stores == []


def _tracer():
    """``bench/tracer.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_functions_are_defined():
    """A name in ``GROUPS`` of ``bench/tracer.py`` that its plhomeo module
    no longer defines breaks ``bench/run.py --trace 1``."""
    missing = []
    for module, funcs, _ in _tracer().GROUPS.values():
        home = importlib.import_module(f"plhomeo.{module}")
        missing += [f"{module}.{fn}" for fn in funcs
                    if getattr(getattr(home, fn, None), "__module__", None)
                    != home.__name__]
    assert missing == []


def test_names_the_benchmark_calls_are_defined():
    """Every ``pio.<name>`` and ``cli.<name>`` that ``bench/run.py`` and
    ``bench/workloads.py`` read, and every name they import from
    ``plhomeo``, is still there: ``cli.pio`` is ``plhomeo.io``, and a
    name missing from it crashes the benchmark."""
    homes = {"pio": importlib.import_module("plhomeo.io"),
             "cli": importlib.import_module("plhomeo.cli")}
    read, missing = set(), []
    for path in (TRACER.parent / "run.py", TRACER.parent / "workloads.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in homes:
                read.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and \
                    (node.module or "").startswith("plhomeo"):
                module = importlib.import_module(node.module)
                missing += [f"{node.module}.{a.name}" for a in node.names
                            if not hasattr(module, a.name)]
    missing += [f"{owner}.{name}" for owner, name in sorted(read)
                if not hasattr(homes[owner], name)]
    assert {name for owner, name in read if owner == "pio"} >= {
        "load_json", "instance_from_dict", "certificate_from_dict",
        "instance_to_dict", "save_json"}
    assert homes["cli"].pio is homes["pio"]
    assert missing == []
