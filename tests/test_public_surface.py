"""The package's exported names: pinned, covering what the demos and the
acceptance tests import, and free of the one-box layers that were removed."""

import ast
from pathlib import Path

import clipverify

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = [
    "AffineLayer",
    "AlphaPolicy",
    "BabConfig",
    "BabStats",
    "BoundingPlanes",
    "BoundsResult",
    "BoxDomain",
    "BranchProbe",
    "BudgetError",
    "CanonicalProblem",
    "ConstraintSet",
    "DualSolution",
    "DualStatus",
    "EmptyBoxError",
    "ExactResult",
    "FeasibilityStatus",
    "GeometryError",
    "InfeasibleSplitError",
    "KnapsackInstance",
    "LayerBounds",
    "LinearConstraint",
    "ModelFormatError",
    "NetworkModel",
    "OracleResult",
    "PatternRegion",
    "PropertySpec",
    "ReluRelaxation",
    "Subdomain",
    "VerificationOutcome",
    "babsr_intercept_score",
    "bound_batch",
    "branch_activation",
    "branch_input",
    "canonicalize",
    "classify_constraint",
    "compute_bounds",
    "concretize",
    "coordinate_ascent",
    "count_unstable",
    "dual_ascent_batch",
    "dual_value",
    "enumerate_pattern_regions",
    "exact_verify",
    "greedy_knapsack",
    "load_model",
    "load_property",
    "lp_box_oracle",
    "model_from_dict",
    "property_from_dict",
    "relax_relu",
    "relaxed_clip_batch",
    "relaxed_clip_parallel",
    "relaxed_clip_sequential",
    "relaxed_clip_single",
    "run_bab",
    "sample_attack",
    "screen_rows",
    "tighten_lower_single",
    "tighten_upper_single",
    "to_knapsack",
]

REMOVED = [
    "SplitAssignment",
    "active_rows",
    "dual_ascent",
    "NeuronStatus",
    "neuron_status",
    "stack_splits",
    "stack_overrides",
    "centroid_distance",
    "final_plane_to_constraint",
    "split_constraint_to_input",
    "stack_constraints",
]


def _imported_from_package(path: Path) -> set:
    """Names a file imports with ``from clipverify import ...``."""
    tree = ast.parse(path.read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "clipverify" and node.level == 0
        for alias in node.names
    }


def test_exports_are_pinned():
    assert sorted(clipverify.__all__) == EXPORTS
    assert all(hasattr(clipverify, name) for name in EXPORTS)


def test_documented_imports_are_exported():
    files = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    for path in files:
        names = _imported_from_package(path)
        assert names, path
        missing = names - set(clipverify.__all__)
        assert not missing, (path.name, sorted(missing))


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(clipverify, name), name
