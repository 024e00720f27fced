"""Static layout rules of the ybe_lab package, checked on its source.

The modules are parsed with ast and never imported, so a rule holds for
every line of the package, not only for the paths the other tests run.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ybe_lab"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}


def package_imports(tree):
    """(module, imported names) for each import of a ybe_lab module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("ybe_lab"):
                continue
            module = (node.module or "").removeprefix("ybe_lab").lstrip(".")
            if module:
                out.append((module, [alias.name for alias in node.names]))
            else:
                # from . import core: each name is a module
                out += [(alias.name, []) for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ybe_lab."):
                    out.append((alias.name.removeprefix("ybe_lab."), []))
    return out


def top_level_names(tree):
    """Names bound by the statements at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def referenced_names(tree):
    """Every identifier the module binds, reads or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname} - {None})
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def assigned_literal(tree, name):
    """The literal value of the module-level assignment to name."""
    (value,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    return value


def functions_reading(tree, name):
    """Top-level definitions (or "<module>") whose code reads the name
    outside type annotations."""
    owners = set()
    for node in tree.body:
        hints = set()
        for n in ast.walk(node):
            for hint in (getattr(n, "returns", None), getattr(n, "annotation", None)):
                if hint is not None:
                    hints.update(map(id, ast.walk(hint)))
        if any(isinstance(n, ast.Name) and n.id == name and id(n) not in hints
               for n in ast.walk(node)):
            owners.add(getattr(node, "name", "<module>"))
    return owners


def calls_to(tree, name):
    """Every call name(...) or x.name(...) in the tree."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def functions_calling(tree, name):
    """Top-level definitions (or "<module>") whose code calls name."""
    return {getattr(node, "name", "<module>") for node in tree.body if calls_to(node, name)}


def test_package_is_found():
    assert {"__init__", "aut", "classify", "cli", "core", "perm"} <= set(MODULES)


def test_no_private_names_cross_modules():
    for name, tree in MODULES.items():
        for module, imported in package_imports(tree):
            if module != name:
                private = [n for n in imported if n.startswith("_")]
                assert not private, f"{name} imports {private} from {module}"


def test_core_imports_only_errors_and_perm():
    assert {m for m, _ in package_imports(MODULES["core"])} <= {"errors", "perm"}


def test_core_checks_and_inverts_rows_in_one_pass():
    # _rows checks and inverts every row of a table, and nothing else in
    # core inverts a row; is_perm tests only the diagonal map
    core = MODULES["core"]
    assert functions_reading(core, "inverse") == {"_rows"}
    assert functions_reading(core, "is_perm") == {"_diagonal"}


def test_core_decides_through_one_composition_scan():
    # the braid relation is the cycle condition reindexed, so only _cycle
    # composes rows, and only the cycle helper and the shared report run it
    core = MODULES["core"]
    assert functions_reading(core, "_composer") == {"_cycle"}
    assert functions_reading(core, "_cycle") == {"check_cycle_condition", "_report"}


def test_core_reads_bool_only_in_the_table_and_n_rules():
    # one rule for entries (_rows) and one for n (_check_n): no other
    # path in core decides on its own what a valid table is
    assert functions_reading(MODULES["core"], "bool") == {"_rows", "_check_n"}


def test_is_abelian_has_one_path():
    # one exact test over the elements for every group: no pair loop over
    # the generators
    assert "is_abelian" not in functions_reading(MODULES["perm"], "all_commute")


def test_only_perm_binds_group_closure():
    assert "group_closure" in top_level_names(MODULES["perm"])
    for name, tree in MODULES.items():
        if name not in ("perm", "__init__"):
            assert "group_closure" not in referenced_names(tree), name
    sources = [m for m, imported in package_imports(MODULES["__init__"])
               if "group_closure" in imported]
    assert sources == ["perm"]


def test_no_member_is_built_to_check_a_certificate():
    # classify checks a certificate at one point per member row, in the
    # input's labels, and aut reads its group off the input; neither
    # builds a member Solution. The oracle's completed tables are the one
    # exception: exhaustive_enumerate wraps each as a Solution to record it.
    for name in ("classify", "aut"):
        assert "build_c" not in referenced_names(MODULES[name]), name
    assert functions_calling(MODULES["aut"], "Solution") == set()
    assert functions_calling(MODULES["classify"], "Solution") == {"exhaustive_enumerate"}


def test_a_solution_is_built_from_sigma_alone():
    # a Solution is (n, sigma): every library call passes exactly those two
    # positional arguments, and tau_from_sigma is the one function that
    # derives a tau table, called by no library path
    calls = 0
    for name, tree in MODULES.items():
        for call in calls_to(tree, "Solution"):
            calls += 1
            assert len(call.args) == 2 and not call.keywords, ast.unparse(call)
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        tau_helpers = {f for f in defined if "tau" in f}
        assert tau_helpers == ({"tau_from_sigma"} if name == "core" else set()), name
        if name != "__init__":
            assert not functions_reading(tree, "tau_from_sigma"), name
    assert calls


def test_certificates_and_automorphisms_stay_in_the_input_labels():
    # the member's rows, translations and shears are never built as
    # permutations to be conjugated through phi: classify takes only the
    # triple type from construct, composes nothing by itemgetter, and
    # neither module inverts phi or evaluates the closed form
    construct_imports = [
        imported for module, imported in package_imports(MODULES["classify"])
        if module == "construct"
    ]
    assert construct_imports == [["CParams"]]
    assert "precompose" not in referenced_names(MODULES["classify"])
    for name in ("classify", "aut"):
        tree = MODULES[name]
        assert "member_rows" not in referenced_names(tree), name
        inverted = [
            ast.unparse(node.args[0]) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "inverse"
        ]
        assert "phi" not in inverted, name
    assert not functions_reading(MODULES["aut"], "aut_c_closed_form")


def test_only_perm_defines_class_ids():
    # one class-id helper, shared by retract and core's cycle scan
    for name, tree in MODULES.items():
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert ("class_ids" in defined) == (name == "perm"), name
        assert "_class_ids" not in referenced_names(tree), name


def test_no_environment_reads():
    for name, tree in MODULES.items():
        found = referenced_names(tree) & {"environ", "environb", "getenv"}
        assert not found, f"{name} reads {sorted(found)}"


def test_imported_names_are_used():
    # every name a module imports is read somewhere in it; __init__ imports
    # to re-export, which test_public_names_resolve covers
    unused = {}
    for name, tree in MODULES.items():
        if name == "__init__":
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[name] = sorted(imported - used)
    assert not unused


def test_public_names_resolve():
    init = MODULES["__init__"]
    exported = assigned_literal(init, "__all__")
    origin = {}
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                origin[alias.asname or alias.name] = (node.module, alias.name)
    assert len(set(exported)) == len(exported)
    for public in exported:
        assert public in origin or public in top_level_names(init), public
        if public in origin:
            module, name = origin[public]
            assert name in top_level_names(MODULES[module]), f"{module}.{name}"


def test_benchmark_names_resolve():
    # perfbench/ reaches the library by module attribute: the tracer wraps
    # every TARGETS entry (install() raises AttributeError on a missing
    # one) and the workloads call module functions and build core.Solution
    # positionally. Read both files as source, so no perfbench import.
    tracing, workloads = (
        ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))
        for name in ("tracing.py", "workloads.py")
    )
    targets = assigned_literal(tracing, "TARGETS")
    reads = {
        (node.value.id, node.attr)
        for node in ast.walk(workloads)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("core", "classify", "retract", "cli")
    }
    assert targets and reads
    for module, name in [tuple(t.split(".")) for t in targets] + sorted(reads):
        defined = {
            node.name
            for node in MODULES[module].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert name in defined, f"{module}.{name}"
    (solution,) = [
        node for node in MODULES["core"].body
        if isinstance(node, ast.ClassDef) and node.name == "Solution"
    ]
    fields = [s.target.id for s in solution.body if isinstance(s, ast.AnnAssign)]
    assert fields == ["n", "sigma", "tau"]
    builds = [
        node for node in ast.walk(workloads)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "Solution"
    ]
    assert builds
    for call in builds:
        assert len(call.args) == len(fields) and not call.keywords
