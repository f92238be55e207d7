"""The package namespace: each library module's __all__, and nothing else."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import beta_targets

MODULES = ("beta_dynamics", "dimension_engine", "errors", "hausdorff_content",
           "numerical_lab", "parallelepiped_geometry")

SRC = Path(beta_targets.__file__).resolve().parent

# public functions with no caller in the package: the benchmark's symbolic
# workload walks and counts cylinders through these two by name
NO_CALLER_IN_PACKAGE = {"enumerate_cylinders", "count_admissible"}

# (module, attribute path) of names that were public and are gone
REMOVED = [
    ("beta_dynamics", "admissible_count_bounds"),
    ("beta_dynamics", "BetaParam.max_digit"),
    ("beta_dynamics", "Interval.contains_point"),
    ("beta_dynamics", "Interval.contains_interval"),
    ("beta_dynamics", "CylinderNode.interval"),
    ("beta_dynamics", "FullSearchParams"),
    ("beta_dynamics", "cylinder_of_word"),
    ("beta_dynamics", "full_count_constant"),
    ("beta_dynamics", "find_full_in_interval"),
    ("beta_dynamics", "count_full_in_interval"),
    ("beta_dynamics", "count_full"),
    ("dimension_engine", "closed_form_example"),
    ("dimension_engine", "generate_target"),
    ("dimension_engine", "AxisFamily"),
    ("dimension_engine", "LevelData.gamma_norms"),
    ("dimension_engine", "LevelData.argmin_tau"),
    ("dimension_engine", "DimensionReport.large_intersection_class"),
    ("dimension_engine", "DimensionReport.window"),
    ("dimension_engine", "DimensionReport.tail_min"),
    ("dimension_engine", "DimensionReport.tail_max"),
    ("dimension_engine", "DimensionReport.tolerance"),
    ("dimension_engine", "log_columns"),
    ("dimension_engine", "gamma_magnitudes"),
    ("hausdorff_content", "content_sandwich"),
    ("hausdorff_content", "SortedRectangle.volume"),
    ("hausdorff_content", "SortedRectangle.from_lengths"),
    ("hausdorff_content", "SortedRectangle"),
    ("hausdorff_content", "brute_force_content_2d"),
    ("hausdorff_content", "ContentEstimate.scale_grid"),
    ("numerical_lab", "EnSet.copy_polygon"),
    ("numerical_lab", "EnSet.mode"),
    ("numerical_lab", "_quiet_target"),
    ("numerical_lab", "CoverRow.s_product"),
    ("numerical_lab", "CoverScan.s"),
    ("numerical_lab", "MeasureBoundReport.max_ratio"),
    ("numerical_lab", "MeasureBoundReport.worst_center"),
    ("numerical_lab", "MeasureBoundReport.worst_radius"),
    ("numerical_lab", "MeasureBoundReport.worst_regime"),
    ("numerical_lab", "MeasureBoundReport.worst_mass"),
    ("numerical_lab", "MeasureBoundReport.samples"),
    ("numerical_lab", "MeasureBoundReport.seed"),
    ("numerical_lab", "mu_ball_mass"),
    ("parallelepiped_geometry", "rotate2d"),
    ("parallelepiped_geometry", "Parallelepiped.column_norms"),
    ("parallelepiped_geometry", "Hyperrectangle.contains_point"),
    ("parallelepiped_geometry", "Hyperrectangle"),
    ("parallelepiped_geometry", "volume"),
    ("parallelepiped_geometry", "pivoted_orthogonalize_scaled"),
    ("parallelepiped_geometry", "rotation_matrix"),
    ("cli_io", "SUBCOMMANDS"),
    ("cli_io", "parse_config"),
]


def _module(name):
    return importlib.import_module(f"beta_targets.{name}")


def test_all_is_the_modules_lists():
    names = [n for m in MODULES for n in _module(m).__all__]
    assert beta_targets.__all__ == names
    assert len(set(names)) == len(names)


def test_names_resolve_to_module_objects():
    for m in MODULES:
        for name in _module(m).__all__:
            assert getattr(beta_targets, name) is getattr(_module(m), name)


def test_readme_public_api_is_all():
    # the README's table of public names: one row per module, in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Public API\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    assert [m for m, _ in rows] == list(MODULES)
    for m, names in rows:
        assert re.findall(r"`(\w+)`", names) == _module(m).__all__


def test_every_public_function_has_a_caller():
    # a caller loads the name (an ast.Name load, or a relative import);
    # an attribute such as spec.family.log_columns or a docstring is none
    loaded = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.level:
                loaded.update(alias.name for alias in node.names)
    uncalled = {name for m in MODULES for name in _module(m).__all__
                if inspect.isfunction(getattr(_module(m), name))
                and name not in loaded}
    assert uncalled == NO_CALLER_IN_PACKAGE


def test_beta_param_importable():
    from beta_targets import BetaParam

    assert BetaParam(1.5, dps=20).dps == 20


@pytest.mark.parametrize("module,path", REMOVED,
                         ids=[p for _, p in REMOVED])
def test_removed_names_are_gone(module, path):
    owner = _module(module)
    head, _, attr = path.rpartition(".")
    if head:
        # a removed class takes its attributes with it
        owner = getattr(owner, head, None)
    else:
        assert not hasattr(beta_targets, attr)
    assert not hasattr(owner, attr)
    # a dataclass field without a default is no class attribute
    assert attr not in getattr(owner, "__dataclass_fields__", {})


@pytest.mark.parametrize("function,keyword", [
    (beta_targets.verify_measure_bound, "t"),
    (beta_targets.Rotated2DFamily, "theta"),
    (beta_targets.Rotated2DFamily, "theta_value"),
    (beta_targets.build_E_n, "mode"),
    (beta_targets.build_E_n, "eps"),
    (beta_targets.cover_exponent_scan, "s"),
])
def test_removed_keywords_are_gone(function, keyword):
    assert keyword not in inspect.signature(function).parameters
