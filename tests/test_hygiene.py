"""Source hygiene of the library, checked with the standard ast module.

No module may define the same top-level name twice (the later definition
silently replaces the earlier one), and no module may import a name it
never uses.  The package ``__init__`` re-exports names, so its imports
are exempt.  Every UPPER_CASE constant the library defines at top level
must be read somewhere in the library or its tests.  Every defaulted
parameter of a library function must be passed by some call in the
library, its tests, demos or benchmark: a default nothing overrides is a
constant.  Every top-level function of the library must be named
somewhere in the library, its tests, demos or benchmark outside its own
definition: a function nothing names is dead.  Every public top-level
name of the library (a function, class or assignment) must be used by
the library outside its own definition, by a demo or by the benchmark:
code that only the tests reach belongs to the tests' oracle
(tests/geometric_oracle.py).  Every field of a library
dataclass must be read as an attribute somewhere in the library, its
tests, demos or benchmark: a field nothing reads is dead weight carried
by every instance.  Every field of StdPants, the pants the sampling
path's scalar route builds, must be read inside the library itself:
data only the tests read belongs to the tests' oracle, not to every
pants the sampling path builds.  Every local a library function binds
must be read in that function (or a function nested in it); a name
starting with ``_`` marks a value bound only to be discarded.  The
geometry value types are ``slots=True`` dataclasses, immutable by
convention only, and a value may be shared by every caller that holds
it: no code may store to or delete a field of a ``slots=True``
library dataclass, plainly, augmented or through ``setattr``, outside
that class's own methods.  No library module imports inside a function
or class body: every import is at module level, where a reader sees the
module's dependencies and an import cycle shows at once.  Inside the library a matrix is a tuple
(a, b, c, d) and a geodesic a pair of endpoints; the value types
Isometry, Geodesic and IdealTriangle are the public API's values: outside
geom.py no library module may build one (call the class or one of its
classmethods) except where a public function returns one
(VALUE_RETURNS).  The batch of pants and its array closed forms of
the seam arcs (decomposition.py) and the campaign's block seeds and
draws (surface.py) must give the scalar path's bits, and
numpy's transcendental and power ufuncs round differently from math
(its SIMD tanh, cosh, asinh, exp and log, and ``arr ** 2``, differ in
the last bit on a share of inputs): none of them names such a ufunc or
uses ``**``, the builtin ``pow`` or operator's power functions, which
run numpy's power ufunc on an array.  The constants audit's grid scan
(constants.py) does, but only to pick the points it evaluates again
with math.  numpy's complex product, quotient and abs round
differently from CPython's too, so none uses a complex number at all,
numpy's or Python's: no ``1j`` literal, no ``complex``, no numpy
complex type or complex dtype name.  Every module the benchmark's worker
imports by name (its ``MODULES`` tuple, read without importing it) must
exist in the library, and every library module but ``__init__`` must be
among them, so that no module's time goes untraced into its callers'
self time.  Every library name a benchmark file imports (``from
shearlab.m import name``) or reads as ``m.name`` after ``from shearlab
import m`` must exist too, collected without running the benchmark: a
rename fails here and not in a benchmark run.  The flip search calls
its kernel, ``_flip_changes`` and ``_flip_flat``, by their module-level
names and never binds or aliases them, so that the tests that patch the
kernel in the module count every call.  The per-pants pipeline has one
rho': SHORT_CURVE_MAX is 2 tanh(rho) and constants.SHEAR_FREE holds the
shear-free values, both built once in constants.py.  No other library
module calls ``math.tanh`` on ``RHO`` or on a ``.rho`` attribute, and
the per-pants modules (PER_PANTS) name neither ``ShearFreeParams`` nor
``shear_free_params``, so a pants' results stay a function of its
length triple.
"""

import ast
import importlib
import math
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shearlab"
MODULES = sorted(SRC.glob("*.py"))
LIBRARY = sorted((ROOT / "src").rglob("*.py"))
READERS = LIBRARY + sorted((ROOT / "tests").rglob("*.py"))
CALLERS = READERS + sorted((ROOT / "demos").rglob("*.py")) + sorted(
    (ROOT / "perfbench").rglob("*.py"))
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def bound_names(node):
    """The names a top-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def duplicate_definitions(tree):
    """Top-level names bound by more than one def, class or assignment."""
    seen, dups = set(), []
    for node in tree.body:
        for name in bound_names(node):
            if name in seen:
                dups.append(name)
            seen.add(name)
    return dups


def unused_imports(tree):
    """Names bound by an import anywhere in the module and never read."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def unread_constants(defining, reading):
    """UPPER_CASE top-level assignments in defining never read in reading.

    A read is a name or attribute load; an import alone is not one.
    """
    defined = []
    for tree in defining:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            defined += [t.id for t in targets if isinstance(t, ast.Name)
                        and CONSTANT.fullmatch(t.id)]
    read = set()
    for tree in reading:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return [name for name in defined if name not in read]


def _defaulted(fn, is_method):
    """(parameter, position among the call's positional arguments or None)."""
    positional = fn.args.posonlyargs + fn.args.args
    if is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list):
        positional = positional[1:]
    out = [(arg.arg, pos) for pos, arg in enumerate(positional)
           if pos >= len(positional) - len(fn.args.defaults)]
    out += [(arg.arg, None) for arg, default
            in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None]
    return out


def unset_defaults(defining, calling):
    """Defaulted parameters that no call passes, by keyword or by position.

    Calls are matched by the called name alone (``f(...)`` or
    ``x.f(...)``; a class name calls its ``__init__``), so a parameter
    passed to any function of the same name counts as passed.
    """
    params = []
    for tree in defining:
        methods = {id(fn): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = fn.name
                if name == "__init__" and id(fn) in methods:
                    name = methods[id(fn)]
                params += [(name, arg, pos) for arg, pos
                           in _defaulted(fn, id(fn) in methods)]
    calls = {}
    for tree in calling:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keys = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(
                (math.inf if starred else len(node.args), keys))

    def passed(name, arg, pos):
        return any(arg in keys or None in keys
                   or (pos is not None and npos > pos)
                   for npos, keys in calls.get(name, ()))

    return [f"{name}({arg}=)" for name, arg, pos in params
            if not passed(name, arg, pos)]


def _names(node):
    """Every name a node reads, looks up as an attribute or imports."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name.split(".")[-1])
    return out


def unreferenced_functions(defining, referring):
    """Top-level defs in defining whose name no tree in referring uses.

    A use inside the function's own body (recursion) does not count.
    """
    uses = Counter(name for tree in referring for name in _names(tree))
    dead = []
    for tree in defining:
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and uses[node.name] == _names(node).count(node.name)):
                dead.append(node.name)
    return dead


def unexported_names(defining, referring):
    """Public top-level names of defining (a def, class or assignment
    whose name does not start with ``_``) that no tree in referring uses
    outside the name's own definition."""
    uses = Counter(name for tree in referring for name in _names(tree))
    return [name for tree in defining for node in tree.body
            for name in bound_names(node) if not name.startswith("_")
            and uses[name] == _names(node).count(name)]


def _called_name(func):
    return (func.id if isinstance(func, ast.Name) else
            func.attr if isinstance(func, ast.Attribute) else None)


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if _called_name(func) == "dataclass":
            return True
    return False


def _is_slotted_dataclass(cls):
    return any(isinstance(dec, ast.Call)
               and _called_name(dec.func) == "dataclass"
               and any(k.arg == "slots" and isinstance(k.value, ast.Constant)
                       and k.value.value is True for k in dec.keywords)
               for dec in cls.decorator_list)


SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def _field_writes(node):
    """(target, attribute name) of a store, augmented store or delete of
    an attribute, or of a setattr/delattr call with a literal name."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.ctx, (ast.Store, ast.Del))):
        return node.value, node.attr
    if (isinstance(node, ast.Call) and _called_name(node.func) in SETTERS
            and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
        return node.args[0], node.args[1].value
    return None


def slotted_field_writes(defining, writing):
    """Writes to a field of a slots=True dataclass of defining, in writing,
    made outside that class's own methods.

    Fields are matched by name.  A method's write through its first
    parameter, also inside a function nested in the method, goes to an
    instance of the method's own class and is not counted.
    """
    owners = {}
    for tree in defining:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _is_slotted_dataclass(cls):
                for node in cls.body:
                    if (isinstance(node, ast.AnnAssign)
                            and isinstance(node.target, ast.Name)):
                        owners.setdefault(node.target.id, set()).add(cls.name)
    found = []
    for tree in writing:
        stack = [(tree, None, None)]
        while stack:
            node, cls, me = stack.pop()
            for child in ast.iter_child_nodes(node):
                if (isinstance(node, ast.ClassDef) and isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef))):
                    args = child.args.posonlyargs + child.args.args
                    stack.append((child, node.name,
                                  args[0].arg if args else None))
                else:
                    stack.append((child, cls, me))
            write = _field_writes(node)
            if write is None or write[1] not in owners:
                continue
            target, name = write
            own = isinstance(target, ast.Name) and target.id == me
            if cls not in owners[name] and not own:
                found.append(f"{'/'.join(sorted(owners[name]))}.{name} "
                             f"at line {node.lineno}")
    return sorted(found)


VALUE_TYPES = {"Isometry", "Geodesic", "IdealTriangle"}
#: (module, function) of the public functions outside geom that return
#: a value type, and so build one
VALUE_RETURNS = {("surface.py", "Holonomy.evaluate_class"),
                 ("cusped.py", "develop_walk"),
                 ("cusped.py", "develop_from_shears")}


def _builds_value(func):
    """Whether a call of func builds a value type: the class itself
    (``Isometry(...)``, ``geom.Geodesic(...)``) or one of its
    classmethods (``Isometry.identity()``)."""
    return (_called_name(func) in VALUE_TYPES
            or (isinstance(func, ast.Attribute)
                and _called_name(func.value) in VALUE_TYPES))


def value_constructions(tree):
    """(scope, line) of every call in tree that builds a value type.

    The scope is the dotted name of the enclosing function, with its
    class (``Holonomy.evaluate_class``), or "" at module level.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope
                      else child.name)
                continue
            if isinstance(child, ast.Call) and _builds_value(child.func):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(tree, "")
    return found


def nested_imports(tree):
    """Lines of the import statements inside a function or class body."""
    return sorted({inner.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def unread_fields(defining, reading):
    """Fields of the dataclasses in defining that no attribute load reads.

    A read is an attribute load (``x.field``) in any tree of reading,
    matched by the field name alone; constructing an instance with the
    field as a keyword is not a read.
    """
    fields = []
    for tree in defining:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                fields += [(cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)]
    read = {node.attr for tree in reading for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def _own_scope(fn):
    """Nodes of fn's own scope: nested functions and classes are left out."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree):
    """Names a function binds in its own scope and never reads.

    A read anywhere in the function counts, nested functions included
    (a closure reads its enclosing locals).  Names declared global or
    nonlocal, and names starting with an underscore, are exempt.
    """
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        scope = list(_own_scope(fn))
        declared = {name for node in scope
                    if isinstance(node, (ast.Global, ast.Nonlocal))
                    for name in node.names}
        bound = {node.id for node in scope if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Store)}
        read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        out += [f"{fn.name}: {name}" for name in sorted(bound - read - declared)
                if not name.startswith("_")]
    return out


BATCH = (SRC / "decomposition.py", SRC / "surface.py", SRC / "report.py")
NUMPY_INEXACT = {"tanh", "cosh", "sinh", "arctanh", "arccosh", "arcsinh",
                 "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
                 "power", "float_power", "square", "cbrt"}
OPERATOR_POW = {"pow", "ipow", "__pow__", "__ipow__"}


def inexact_numpy(tree):
    """Uses of numpy transcendental or power ufuncs, and of power anywhere.

    A use is an attribute ``np.f`` or ``numpy.f``, or a name imported
    from numpy.  ``**``, ``**=``, the builtin ``pow`` and operator's
    power functions are flagged whatever their operands, since the tree
    does not say which are arrays, and on an array each runs numpy's
    power ufunc.
    """
    modules = {"np": NUMPY_INEXACT, "numpy": NUMPY_INEXACT,
               "operator": OPERATOR_POW}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.attr in modules.get(node.value.id, ())):
            found.append((node, f"{node.value.id}.{node.attr}"))
        elif (isinstance(node, ast.ImportFrom)
              and node.module in ("numpy", "operator")):
            found += [(node, f"{node.module}.{alias.name}")
                      for alias in node.names
                      if alias.name in modules[node.module]]
        elif (isinstance(node, ast.Name) and node.id == "pow"
              and isinstance(node.ctx, ast.Load)):
            found.append((node, "pow"))
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Pow)):
            found.append((node, "**"))
    return [f"{text} at line {node.lineno}" for node, text in
            sorted(found, key=lambda f: (f[0].lineno, f[0].col_offset))]


NUMPY_COMPLEX = {"complex64", "complex128", "complex256", "complex_",
                 "cdouble", "csingle", "clongdouble", "cfloat",
                 "complexfloating"}


def complex_numbers(tree):
    """Uses of numpy or Python complex numbers.

    A use is a complex literal (``1j``), the name ``complex`` (a call,
    ``dtype=complex`` or ``astype(complex)``), a numpy complex type
    ``np.t`` or ``numpy.t`` or one imported from numpy, or a string
    naming a complex dtype (``"complex128"``, ``"c16"``, ``"D"``) as an
    argument.
    """
    found = []
    dtype_names = re.compile(r"complex\d*|c8|c16|c32|[FDG]")
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         complex):
            found.append((node, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "complex":
            found.append((node, "complex"))
        elif (isinstance(node, ast.Attribute) and node.attr in NUMPY_COMPLEX
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            found.append((node, f"{node.value.id}.{node.attr}"))
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"):
            found += [(node, f"numpy.{alias.name}") for alias in node.names
                      if alias.name in NUMPY_COMPLEX]
        elif isinstance(node, ast.Call):
            args = node.args + [kw.value for kw in node.keywords]
            found += [(arg, repr(arg.value)) for arg in args
                      if isinstance(arg, ast.Constant)
                      and isinstance(arg.value, str)
                      and dtype_names.fullmatch(arg.value)]
    return [f"{text} at line {node.lineno}" for node, text in
            sorted(found, key=lambda f: (f[0].lineno, f[0].col_offset))]


def tanh_of_rho(tree):
    """Calls of ``math.tanh`` (or a ``tanh`` imported from math) on
    ``RHO`` or on a ``.rho`` attribute, by line."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func, arg = node.func, node.args[0]
        if ((isinstance(func, ast.Attribute) and func.attr == "tanh"
             and isinstance(func.value, ast.Name)
             and func.value.id == "math"
             or isinstance(func, ast.Name) and func.id == "tanh")
                and (isinstance(arg, ast.Name) and arg.id == "RHO"
                     or isinstance(arg, ast.Attribute)
                     and arg.attr == "rho")):
            found.append(f"tanh({ast.unparse(arg)}) at line {node.lineno}")
    return found


#: the modules of the per-pants pipeline, which take no rho'
PER_PANTS = (SRC / "pants.py", SRC / "spiralling.py",
             SRC / "decomposition.py")
SHEAR_FREE_BUILDERS = {"ShearFreeParams", "shear_free_params"}


def shear_free_builders(tree):
    """Imports and attribute reads of ShearFreeParams or
    shear_free_params, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node, alias.name) for alias in node.names
                      if alias.name in SHEAR_FREE_BUILDERS]
        elif (isinstance(node, ast.Attribute)
              and node.attr in SHEAR_FREE_BUILDERS):
            found.append((node, node.attr))
    return [f"{name} at line {node.lineno}" for node, name in found]


def benchmark_modules(tree):
    """The value of the module's top-level MODULES tuple, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and "MODULES" in bound_names(node):
            return ast.literal_eval(node.value)
    return None


def benchmark_names(tree):
    """The dotted library names a benchmark file uses: each module of a
    ``from shearlab import m``, each ``m.name`` the file reads after it,
    and each ``m.name`` of a ``from shearlab.m import name``."""
    modules = {}
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            if node.module == "shearlab":
                modules[alias.asname or alias.name] = alias.name
                names.add(alias.name)
            elif node.module and node.module.startswith("shearlab."):
                names.add(f"{node.module[len('shearlab.'):]}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return sorted(names)


def missing_library_names(names):
    """The dotted names that the shearlab package does not define."""
    missing = []
    for name in names:
        module, _, attr = name.partition(".")
        try:
            found = importlib.import_module(f"shearlab.{module}")
        except ImportError:
            missing.append(name)
            continue
        if attr and not hasattr(found, attr):
            missing.append(name)
    return missing


#: the flip kernel that the search's counting tests patch in the module
#: (tests/test_cusped.py: count_scores_per_step and
#: test_builds_one_flip_per_step)
SEARCH_KERNEL = ("_flip_changes", "_flip_flat")


def unpatched_calls(tree, function, names):
    """How the module's top-level function could escape a test's patch
    of the given module-level names: a name it never calls, one it
    binds (an argument, an assignment, a loop, with or except target,
    an import, a nested definition, or a global or nonlocal
    declaration), by line, and one it reads other than as the function
    of a call (an alias, or an argument to another call)."""
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == function)
    found, calls, loads = [], Counter(), Counter()
    for node in ast.walk(fn):
        bound = []
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            calls[node.func.id] += 1
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                loads[node.id] += 1
            else:
                bound.append(node.id)
        elif isinstance(node, ast.arg):
            bound.append(node.arg)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)) and node is not fn):
            bound.append(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound += node.names
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.append(node.name)
        found += [(node.lineno, name) for name in bound if name in names]
    found = [f"{name} bound at line {line}" for line, name in sorted(found)]
    for name in names:
        if not calls[name]:
            found.append(f"{name} never called")
        elif loads[name] > calls[name]:
            found.append(f"{name} read other than as a call")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_duplicate_top_level_names(path):
    assert duplicate_definitions(_parse(path)) == []


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_is_read(path):
    assert unread_locals(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(_parse(path)) == []


def test_batch_rounds_as_the_scalar_path():
    for path in BATCH:
        tree = _parse(path)
        assert inexact_numpy(tree) == [], path.name
        assert complex_numbers(tree) == [], path.name


def test_one_rho_for_the_per_pants_pipeline():
    # 2 tanh(rho) is SHORT_CURVE_MAX, and the kernels read SHEAR_FREE
    found = [f"{path.name}: {hit}" for path in MODULES
             if path.name != "constants.py"
             for hit in tanh_of_rho(_parse(path))]
    found += [f"{path.name}: {hit}" for path in PER_PANTS
              for hit in shear_free_builders(_parse(path))]
    assert found == []


def test_every_constant_is_read():
    assert unread_constants([_parse(p) for p in MODULES],
                            [_parse(p) for p in READERS]) == []


def test_every_default_is_set_somewhere():
    assert unset_defaults([_parse(p) for p in MODULES],
                          [_parse(p) for p in CALLERS]) == []


def test_every_function_is_referenced():
    trees = {path: _parse(path) for path in CALLERS}
    assert unreferenced_functions([trees[p] for p in MODULES],
                                  trees.values()) == []


def test_every_public_name_is_used_outside_the_tests():
    # code that only the tests reach belongs to the tests' oracle
    program = LIBRARY + sorted((ROOT / "demos").rglob("*.py")) + sorted(
        (ROOT / "perfbench").rglob("*.py"))
    trees = {path: _parse(path) for path in program}
    assert unexported_names([trees[p] for p in MODULES],
                            trees.values()) == []


def test_every_dataclass_field_is_read():
    trees = {path: _parse(path) for path in CALLERS}
    assert unread_fields([trees[p] for p in MODULES], trees.values()) == []


def fields_unread_in_library(cls_name, library):
    """Fields of the dataclass cls_name that no attribute load in library reads."""
    return [field for field in unread_fields(library, library)
            if field.startswith(f"{cls_name}.")]


def test_std_pants_fields_are_read_in_the_library():
    assert fields_unread_in_library(
        "StdPants", [_parse(p) for p in LIBRARY]) == []


def test_slotted_fields_are_written_only_by_their_class():
    assert slotted_field_writes([_parse(p) for p in MODULES],
                                [_parse(p) for p in CALLERS]) == []


def test_value_types_are_built_only_where_returned():
    sites = {path.name: value_constructions(_parse(path)) for path in MODULES
             if path.name != "geom.py"}
    assert [f"{name}: {scope or '<module>'} at line {line}"
            for name, found in sites.items() for scope, line in found
            if (name, scope) not in VALUE_RETURNS] == []
    # every listed return point still builds its value
    assert VALUE_RETURNS <= {(name, scope) for name, found in sites.items()
                             for scope, _ in found}


def test_benchmark_modules_exist():
    names = benchmark_modules(_parse(ROOT / "perfbench" / "worker.py"))
    assert names and "chains" in names
    assert [name for name in names
            if not (SRC / f"{name}.py").is_file()] == []


def test_benchmark_traces_every_module():
    names = benchmark_modules(_parse(ROOT / "perfbench" / "worker.py"))
    assert sorted(path.stem for path in MODULES
                  if path.name != "__init__.py") == sorted(names)


def test_benchmark_names_exist():
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names.update(benchmark_names(_parse(path)))
    assert {"chains.build_cusped_chain", "cusped.flip",
            "report.parse_surface", "surface.sample_fn"} <= names
    assert missing_library_names(sorted(names)) == []


def test_search_calls_its_kernel_by_name():
    # the counting tests patch the kernel in the module, so the search
    # must look each kernel function up there at every call: one it held
    # under another name would pass those tests without being counted
    tree = _parse(SRC / "cusped.py")
    assert set(SEARCH_KERNEL) <= {node.name for node in tree.body
                                  if isinstance(node, ast.FunctionDef)}
    assert unpatched_calls(tree, "minimax_flip_search", SEARCH_KERNEL) == []


def test_checks_catch_their_targets():
    tree = ast.parse("import os\nfrom math import pi, tau\n"
                     "def f():\n    return tau\n"
                     "def f():\n    return 1\n")
    assert duplicate_definitions(tree) == ["f"]
    assert unused_imports(tree) == ["os", "pi"]
    assert benchmark_modules(tree) is None
    search = ast.parse("def search(g, kernel):\n"
                       "    flip = step\n"
                       "    for score in g:\n"
                       "        flip(score)\n"
                       "        step(g)\n"
                       "    def local():\n"
                       "        global other\n"
                       "        import other\n"
                       "    try:\n        g()\n"
                       "    except ValueError as caught:\n        pass\n"
                       "    return kernel(g), fine(g)\n"
                       "def elsewhere(g):\n    missing = g\n")
    assert unpatched_calls(search, "search", (
        "kernel", "step", "score", "local", "other", "caught", "fine",
        "missing")) == [
        "kernel bound at line 1", "score bound at line 3",
        "local bound at line 6", "other bound at line 7",
        "other bound at line 8", "caught bound at line 11",
        "step read other than as a call", "score never called",
        "local never called", "other never called", "caught never called",
        "missing never called"]
    assert benchmark_modules(ast.parse(
        "import x\nMODULES = ('cli', 'geom')\n")) == ("cli", "geom")
    bench = ast.parse("def f():\n    from shearlab import chains as ch\n"
                      "    from shearlab.geom import INF, no_such\n"
                      "    return ch.build_cusped_chain, ch.gone, other.x\n")
    assert benchmark_names(bench) == [
        "chains", "chains.build_cusped_chain", "chains.gone", "geom.INF",
        "geom.no_such"]
    assert missing_library_names(benchmark_names(bench)) == [
        "chains.gone", "geom.no_such"]
    assert missing_library_names(["no_module.x"]) == ["no_module.x"]
    lib = ast.parse("import os\nif os:\n    import sys\n"
                    "def f():\n    from . import x\n"
                    "    def g():\n        import y\n"
                    "class C:\n    import z\n"
                    "    def m(self):\n        from .w import v\n")
    assert nested_imports(lib) == [5, 7, 9, 11]
    lib = ast.parse("from .geom import Isometry\nimport geom\n"
                    "X = Isometry(1, 0, 0, 1)\n"
                    "class H:\n    def f(self):\n"
                    "        return geom.Geodesic(0, 1)\n"
                    "def g():\n    def h():\n"
                    "        return geom.Isometry.identity()\n"
                    "    return isinstance(h(), Isometry), (1, 0, 0, 1)\n")
    assert value_constructions(lib) == [("", 3), ("H.f", 6), ("g.h", 9)]
    lib = ast.parse("A_TOL = 1\n_B = 2\nC: int = 3\nUNREAD = 4\n"
                    "lower = 5\nStyle = 6\n")
    reader = ast.parse("from lib import UNREAD\nimport lib\n"
                       "x = A_TOL + lib._B + lib.C\nUNREAD = 7\n")
    assert unread_constants([lib], [reader]) == ["UNREAD"]
    lib = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                    "def g(x=1):\n    pass\n"
                    "def h(y=1):\n    pass\n"
                    "class K:\n    def __init__(self, z=1, w=2):\n"
                    "        pass\n    def m(self, u=1, v=2):\n        pass\n")
    caller = ast.parse("f(0, 1, e=5)\nmod.g(*xs)\nh(**kw)\n"
                       "K(1)\nK().m(1)\nobj.m(v=2)\n")
    assert unset_defaults([lib], [caller]) == ["f(c=)", "f(d=)", "K(w=)"]
    lib = ast.parse("def used():\n    pass\n"
                    "def recursive(n):\n    return recursive(n - 1)\n"
                    "def imported():\n    pass\n"
                    "def dead():\n    pass\n"
                    "class Dead:\n    pass\n")
    caller = ast.parse("from lib import imported\nlib.used()\n")
    assert unreferenced_functions([lib], [lib, caller]) == ["recursive",
                                                            "dead"]
    lib = ast.parse("LIMIT = 1\n_PRIVATE = 2\nUSED: int = 3\n"
                    "def helper():\n    return USED\n"
                    "def only_tests():\n    return only_tests()\n"
                    "class Row:\n    pass\n"
                    "def _hidden():\n    pass\n")
    demo = ast.parse("from lib import helper\n")
    assert unexported_names([lib], [lib, demo]) == ["LIMIT", "only_tests",
                                                    "Row"]
    lib = ast.parse("from dataclasses import dataclass\n"
                    "import dataclasses\n"
                    "@dataclass\nclass Row:\n    name: str\n"
                    "    detail: str\n    KIND = 1\n"
                    "@dataclasses.dataclass(frozen=True)\nclass Pt:\n"
                    "    x: float\n    y: float\n"
                    "class Plain:\n    z: int\n")
    caller = ast.parse("r = Row(name='a', detail='b')\nprint(r.name)\n"
                       "p = Pt(1, 2)\np.x = p.y\n")
    assert unread_fields([lib], [lib, caller]) == ["Row.detail", "Pt.x"]
    lib = ast.parse("from dataclasses import dataclass\n"
                    "@dataclass(frozen=True)\nclass StdPants:\n"
                    "    lengths: tuple\n    probe: tuple\n"
                    "@dataclass\nclass Other:\n    unread: int\n"
                    "def kernel(sp):\n    return sp.lengths\n")
    test = ast.parse("assert sp.probe and sp.unread\n")
    assert unread_fields([lib], [lib, test]) == []
    assert fields_unread_in_library("StdPants", [lib]) == ["StdPants.probe"]
    lib = ast.parse("N = 0\n"
                    "def f(pair):\n"
                    "    a, b = pair\n    _, c = pair\n"
                    "    for i, j in pair:\n        print(i)\n"
                    "    with open(a) as fh:\n        pass\n"
                    "    def g():\n        return c\n"
                    "    def h():\n        dead = 1\n"
                    "    global N\n    N = 1\n"
                    "    total = 0\n    total += 1\n"
                    "    return g, h\n")
    assert unread_locals(lib) == ["f: b", "f: fh", "f: j", "f: total",
                                  "h: dead"]
    lib = ast.parse("from dataclasses import dataclass\n"
                    "@dataclass(slots=True)\nclass Pt:\n"
                    "    x: float\n    y: float\n"
                    "    def __post_init__(self):\n"
                    "        self.x = float(self.x)\n"
                    "    def bump(self, other):\n"
                    "        other.y += 1\n"
                    "@dataclass(frozen=True)\nclass Row:\n    name: str\n"
                    "class Mat:\n    __slots__ = ('x',)\n"
                    "    def __init__(self, x):\n        self.x = x\n"
                    "        def reset():\n            self.x = 0\n")
    writer = ast.parse("def shift(p, r):\n"
                       "    p.x = 0\n    p.y += 1\n"
                       "    setattr(p, 'x', 1)\n"
                       "    object.__setattr__(p, 'y', 2)\n"
                       "    del p.x\n    r.name = 'b'\n"
                       "    a, p.y = 1, 2\n")
    assert slotted_field_writes([lib], [lib, writer]) == [
        "Pt.x at line 2", "Pt.x at line 4", "Pt.x at line 6",
        "Pt.y at line 3", "Pt.y at line 5", "Pt.y at line 8"]
    batch = ast.parse("import numpy as np\nfrom numpy import log1p, sqrt\n"
                      "def f(x, y):\n"
                      "    a = np.sqrt(x) + np.tanh(x) * numpy.exp(y)\n"
                      "    b = x ** 2\n    b **= 2\n"
                      "    c = np.where(x > 0, x, 1.0) - abs(y) / 2.0\n"
                      "    return np.power(a, b), c, math.tanh(1.0)\n"
                      "import operator\nfrom operator import ipow\n"
                      "def g(x, y):\n"
                      "    a = pow(x, 2) + operator.pow(x, y)\n"
                      "    b = list(map(pow, x, y)), operator.__pow__\n"
                      "    return a, b, math.pow(2.0, 0.5), operator.mul\n")
    assert inexact_numpy(batch) == [
        "numpy.log1p at line 2", "np.tanh at line 4", "numpy.exp at line 4",
        "** at line 5", "** at line 6", "np.power at line 8",
        "operator.ipow at line 10", "pow at line 12",
        "operator.pow at line 12", "pow at line 13",
        "operator.__pow__ at line 13"]
    batch = ast.parse("import numpy as np\nfrom numpy import cdouble, hypot\n"
                      "def f(x, y, m):\n"
                      "    z = x + 1j * y\n    w = complex(x, y)\n"
                      "    a = np.zeros(3, dtype=complex)\n"
                      "    b = x.astype(complex) + np.complex128(1)\n"
                      "    c = np.empty(2, dtype='c16'), numpy.csingle\n"
                      "    d = np.hypot(x, y), m.real, z.imag, 'D'\n"
                      "    return z, w, a, b, c, d\n")
    assert complex_numbers(batch) == [
        "numpy.cdouble at line 2", "1j at line 4", "complex at line 5",
        "complex at line 6", "complex at line 7", "np.complex128 at line 7",
        "'c16' at line 8", "numpy.csingle at line 8"]
    kernel = ast.parse("import math\nfrom math import tanh\n"
                       "from .constants import RHO, ShearFreeParams\n"
                       "from . import constants\n"
                       "def f(cfg, x):\n"
                       "    a = 2.0 * math.tanh(cfg.rho)\n"
                       "    b = tanh(RHO) + math.tanh(x) + math.cosh(RHO)\n"
                       "    return a, b, constants.shear_free_params()\n")
    assert tanh_of_rho(kernel) == ["tanh(cfg.rho) at line 6",
                                   "tanh(RHO) at line 7"]
    assert shear_free_builders(kernel) == ["ShearFreeParams at line 3",
                                           "shear_free_params at line 8"]
