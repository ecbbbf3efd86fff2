import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gmtkit

MODULES = ["gmtkit"] + [
    f"gmtkit.{m.name}" for m in pkgutil.iter_modules(gmtkit.__path__)
    if hasattr(importlib.import_module(f"gmtkit.{m.name}"), "__all__")
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


SRC = Path(gmtkit.__file__).parent
# a private name of this kind in cubemaps or cubical would be a second grid
GRID_WORDS = re.compile(r"grid|cell|code|nearest|rank|pairs")


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_only_the_grid_module_builds_cell_codes():
    """Only ``gmtkit._grid`` calls ``ravel_multi_index`` or ``unravel_index``,
    and no module takes a grid helper from ``cubemaps`` or ``cubical``."""
    grid_names = _top_level_names(ast.parse((SRC / "_grid.py").read_text()))
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if path.stem != "_grid" and isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("ravel_multi_index", "unravel_index"):
                    found.append(f"{path.name}:{node.lineno} calls {name}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in ("cubemaps", "cubical"):
                for alias in node.names:
                    if alias.name in grid_names or (alias.name.startswith("_") and GRID_WORDS.search(alias.name)):
                        found.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module}")
    assert not found, found


def test_only_smoothmap_reads_the_raw_evaluation():
    """No code in ``src/`` reads a map's ``_evaluate`` except ``self._evaluate``
    in ``SmoothMap``'s own methods, so every other caller goes through the
    checked, masked path of ``value``, ``jacobian`` and ``value_and_jacobian``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "SmoothMap":
                for method in cls.body:
                    if isinstance(method, ast.FunctionDef):
                        allowed.update(id(node) for node in ast.walk(method)
                                       if isinstance(node, ast.Attribute)
                                       and isinstance(node.value, ast.Name) and node.value.id == "self")
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "value", None)
            if name == "_evaluate" and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno} reads _evaluate")
    assert not found, found


def test_pushforward_moves_a_set_in_one_call():
    """``varifold.pushforward`` does not call itself and makes one
    ``value_and_jacobian`` call: the inside tangent samples and the Haar
    copies of the inside isotropic ones move together."""
    tree = ast.parse((SRC / "varifold.py").read_text())
    (fn,) = [stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef) and stmt.name == "pushforward"]
    calls = [ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)]
    assert "pushforward" not in calls, calls
    assert [c for c in calls if c.endswith("value_and_jacobian")] == ["phi.value_and_jacobian"], calls


def test_only_grassmann_reads_rotation_angles():
    """No module in ``src/`` but ``grassmann`` reads a rotation's ``angles``:
    M(tau), M'(tau) and the displacement (M(tau) - I) v all come from
    ``PlaneRotation``'s one kernel."""
    found = [
        f"{path.name}:{node.lineno} reads .angles"
        for path in sorted(SRC.glob("*.py")) if path.stem != "grassmann"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "angles"
    ]
    assert not found, found


def test_one_writer_formats_floats_for_files():
    """Outside ``varifold._write_table`` (every CSV) and ``cubical.cubes_to_obj``
    (every OBJ), no function in ``src/`` uses the builtin ``repr``, so the
    text of every float written to a file comes from one of those two."""
    allowed = {("varifold", "_write_table"), ("cubical", "cubes_to_obj")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and (path.stem, fn.name) in allowed
                  for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno} uses repr" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "repr" and id(node) not in inside]
    assert not found, found


def test_only_cubical_builds_cubes():
    """``DyadicCube(...)`` is called in ``src/`` only inside ``cubical`` and in
    ``cli.cmd_deform``'s family of config grid cubes: both complexes hand
    their cells out as rows, and a cube object is made only by the one row
    decoder in ``cubical`` or where a caller asks for one."""
    deform_family, found = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and (path.stem, fn.name) == ("cli", "cmd_deform")
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (path.stem != "cubical" and isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "DyadicCube"):
                (deform_family if id(node) in inside else found).append(f"{path.name}:{node.lineno}")
    assert len(deform_family) == 1 and not found, found


def test_only_the_profile_module_assembles_profiles():
    """No module in ``src/`` but ``_profiles`` calls ``smoothstep_i``: every
    profile value (the integral of a smoothstep blend) is assembled in one
    module, from which each map takes its profile as one function."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "_profiles":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "smoothstep_i":
                    found.append(f"{path.name}:{node.lineno} calls smoothstep_i")
    assert not found, found


def test_only_spans_builds_a_reduction():
    """In ``src/`` only ``solver.spans`` builds a ``_Reduction``, over the
    support columns of one chain: the fillings, the oracle's kernel basis
    and the projection certificate all come from the prism sweep."""
    allowed, found = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and (path.stem, fn.name) == ("solver", "spans")
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "_Reduction":
                    (allowed if id(node) in inside else found).append(f"{path.name}:{node.lineno}")
    assert len(allowed) == 1 and not found, found


def test_only_distinct_rows_takes_row_fingerprints():
    """Only ``_grid.distinct_rows`` calls ``_row_fingerprint``: the centre
    search's positions and recentred rows and the transport's positions are
    merged by one mechanism."""
    allowed, found = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and (path.stem, fn.name) == ("_grid", "distinct_rows")
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_row_fingerprint":
                (allowed if id(node) in inside else found).append(f"{path.name}:{node.lineno}")
    assert len(allowed) == 1 and not found, found


def test_no_unique_rows_outside_distinct_rows():
    """No ``np.unique`` call in ``src/`` passes ``axis``: which rows are
    bitwise equal is decided only by ``_grid.distinct_rows``."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "unique"
             and (len(node.args) > 4 or any(kw.arg == "axis" for kw in node.keywords))]
    assert not found, found


def test_only_pair_norms_takes_grid_norms():
    """In ``gmtkit._grid`` only ``pair_norms`` calls ``np.linalg.norm``, so
    every pair distance of the nearest-sample searches is one function's,
    the running sum that equals the norm byte for byte up to 7 coordinates."""
    tree = ast.parse((SRC / "_grid.py").read_text())
    inside = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "pair_norms"
              for node in ast.walk(fn)}
    found = [f"_grid.py:{node.lineno} calls norm" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "norm" and id(node) not in inside]
    assert not found, found




# top-level functions outside _grid that take a minimum over distances of
# point differences, each with the reason it is not a nearest-sample distance
NEAREST_MINIMUM_ALLOWED = {
    ("cubemaps.py", "unrect_perturbation"): "the nearest-ball lookup needs each point's ball index, not a distance",
    ("cli.py", "cmd_deform"): "the skeleton check measures each image point to the skeleton's cubes, not to samples",
}
MINIMUM_CALLS = {"min", "amin", "minimum", "argmin", "nanmin", "nanargmin"}


def _is_difference_norm(node):
    """A ``np.linalg.norm`` or ``_grid.pair_norms`` call on a difference."""
    return (isinstance(node, ast.Call) and re.search(r"(^|\.)(linalg\.norm|pair_norms)$", ast.unparse(node.func))
            and bool(node.args) and isinstance(node.args[0], ast.BinOp) and isinstance(node.args[0].op, ast.Sub))


def _nearest_minima(stmt):
    """Lines of ``stmt`` whose min, np.min, np.minimum or argmin (call or
    method) takes a norm of a difference, directly or through a name that
    an assignment in ``stmt`` binds to one."""
    bound = {t.id for node in ast.walk(stmt) if isinstance(node, ast.Assign) and _is_difference_norm(node.value)
             for t in node.targets if isinstance(t, ast.Name)}
    lines = set()
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name not in MINIMUM_CALLS:
            continue
        operands = [*node.args, *([func.value] if isinstance(func, ast.Attribute) else [])]
        if any(_is_difference_norm(sub) or (isinstance(sub, ast.Name) and sub.id in bound)
               for op in operands for sub in ast.walk(op)):
            lines.add(node.lineno)
    return lines


def test_only_the_grid_module_takes_nearest_sample_minima():
    """No module in ``src/`` but ``_grid`` takes the least distance from a
    point to a set of samples by hand: every such minimum is
    ``_grid.nearest_all`` (all pairs, in blocks) or ``_grid.median_spacing``."""
    found = [f"{path.name}:{line} in {getattr(stmt, 'name', '<module>')}"
             for path in sorted(SRC.glob("*.py")) if path.stem != "_grid"
             for stmt in ast.parse(path.read_text()).body
             if (path.name, getattr(stmt, "name", None)) not in NEAREST_MINIMUM_ALLOWED
             for line in sorted(_nearest_minima(stmt))]
    assert not found, found


def test_the_nearest_minimum_scan_sees_each_allowed_site():
    """Each allowed site still takes such a minimum, so the allowlist names
    only sites the scan finds."""
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    for file, func in NEAREST_MINIMUM_ALLOWED:
        (stmt,) = [s for s in trees[file].body if getattr(s, "name", None) == func]
        assert _nearest_minima(stmt), (file, func)


def test_no_comprehension_takes_one_norm_per_row():
    """No comprehension in ``src/`` calls ``np.linalg.norm`` without ``axis``:
    a norm per row is one call (``axis``, or ``_grid.row_dots`` where the
    bytes of a single row's norm matter), not a Python step per row."""
    found = sorted({f"{path.name}:{node.lineno} takes a norm per row"
                    for path in sorted(SRC.glob("*.py"))
                    for comp in ast.walk(ast.parse(path.read_text()))
                    if isinstance(comp, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp))
                    for node in ast.walk(comp)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "norm" and not any(k.arg == "axis" for k in node.keywords)})
    assert not found, found


def test_only_grassmann_builds_sampled_planes_one_by_one():
    """Outside ``grassmann`` no code in ``src/`` calls ``haar_sample`` or
    ``Plane.span``: planes in bulk are frame arrays, from one ``_mgs`` or
    ``_haar_frames`` call."""
    found = [f"{path.name}:{node.lineno} calls {ast.unparse(node.func)}"
             for path in sorted(SRC.glob("*.py")) if path.stem != "grassmann"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and re.search(r"(^|\.)(haar_sample|Plane\.span)$", ast.unparse(node.func))]
    assert not found, found


def test_box_union_queries_take_no_step_per_box():
    """No loop or comprehension in ``BoxUnion.contains``, ``meets`` or
    ``dist_inf_complement`` iterates over ``boxes``: the three read the slot
    grid built with the set, so their cost does not grow with the box count."""
    tree = ast.parse((SRC / "cubical.py").read_text())
    queries = [fn for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "BoxUnion"
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               and fn.name in ("contains", "meets", "dist_inf_complement")]
    assert len(queries) == 3
    found = [f"cubical.py:{node.iter.lineno} {fn.name} iterates over {ast.unparse(node.iter)}"
             for fn in queries for node in ast.walk(fn) if isinstance(node, (ast.For, ast.comprehension))
             if any(getattr(sub, "id", getattr(sub, "attr", None)) == "boxes" for sub in ast.walk(node.iter))]
    assert not found, found


# public methods kept though no code in src/ or perfbench/ calls them, each with its reason
UNCALLED_METHODS = {
    "DeformationPlan.homotopy": "the deformation theorem's homotopy f(t, x) through the stage maps",
    "DeformationPlan.homotopy_mass_estimate": "the theorem's mass bound on that homotopy's trace",
}


def test_every_public_method_has_a_caller():
    """Every public method of every public class in ``src/`` is named as an
    attribute somewhere in ``src/`` or ``perfbench/``: a method only tests
    call belongs in ``tests/``, and one nothing calls is deleted."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    sources = sorted(SRC.glob("*.py")) + sorted(perfbench.glob("*.py"))
    named = {node.attr for path in sources for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)}
    found = [f"{path.name}: {cls.name}.{fn.name}"
             for path in sorted(SRC.glob("*.py")) for cls in ast.parse(path.read_text()).body
             if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
             for fn in cls.body
             if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_") and fn.name not in named
             and f"{cls.name}.{fn.name}" not in UNCALLED_METHODS]
    assert not found, found


# public module-level functions kept though no code in src/ or perfbench/ calls them, each with its reason
UNCALLED_FUNCTIONS = {
    "nearest_point_cube": "the nearest-point projection onto the cube, the map the smooth retraction replaces",
    "image_mass_bound": "the deformation theorem's image-mass inequality, checked on each stage",
    "pullback_integrand": "the pull-back phi^# F of an integrand, the change of variables of the functionals",
    "blowup_map": "the graph blow-up map K whose push-forwards give the slice",
    "density_ratio": "the density ratio at one point, the quantity the solver's audit reports",
    "chain_to_varifold": "a chain as the discrete varifold whose samples the audit measures",
}


def _names_outside_own_body(tree):
    """Every name, attribute and imported name in a module, less each
    top-level function's mentions of itself inside its own body."""
    named = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
        if isinstance(stmt, ast.FunctionDef):
            found.discard(stmt.name)
        named |= found
    return named


def test_every_public_function_has_a_caller():
    """Every public module-level function in ``src/`` is named somewhere in
    ``src/`` or ``perfbench/`` outside its own body (``__all__`` strings do
    not count): a function only tests call belongs in ``tests/``."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    named = set()
    for path in sorted(SRC.glob("*.py")) + sorted(perfbench.glob("*.py")):
        named |= _names_outside_own_body(ast.parse(path.read_text()))
    found = [f"{path.name}: {fn.name}"
             for path in sorted(SRC.glob("*.py")) for fn in ast.parse(path.read_text()).body
             if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
             and fn.name not in named and fn.name not in UNCALLED_FUNCTIONS]
    assert not found, found


# callers that keep np.einsum("nij,njk->nik"), with the reason each does
ROW_PRODUCT_EINSUM_ALLOWED = {
    ("_grid.py", "row_matmul"): "the fallback for the layouts whose einsum order the loop does not repeat",
}


class _EinsumCalls(ast.NodeVisitor):
    """(function, line) of each np.einsum call whose subscripts are a
    string constant, by the innermost enclosing function."""

    def __init__(self, subscripts):
        self.subscripts, self.stack, self.found = subscripts, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "einsum" and node.args:
            first = node.args[0]
            texts = [first] if isinstance(first, ast.Constant) else [
                n for n in ast.walk(first) if isinstance(n, ast.Constant)]
            if any(t.value in self.subscripts for t in texts if isinstance(t.value, str)):
                self.found.append((self.stack[-1], node.lineno))
        self.generic_visit(node)


def test_row_products_go_through_row_matmul():
    """Every batched row product einsum("nij,njk->nik") in ``src/`` is
    ``_grid.row_matmul``, which gives its bytes; the einsum call itself is
    left only in the allowed callers."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _EinsumCalls({"nij,njk->nik", "...ij,...jk->...ik"})
        visitor.visit(ast.parse(path.read_text()))
        found += [f"{path.name}:{line} in {func}" for func, line in visitor.found
                  if (path.name, func) not in ROW_PRODUCT_EINSUM_ALLOWED]
    assert not found, found
