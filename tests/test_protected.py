"""The tests no merge may drop: c01-c11, the digests, the benchmark's own
checks, every backend parity test and every test that holds a time or memory
bound. Read with ast, so that this check imports nothing it guards."""

import ast
import os

HERE = os.path.dirname(os.path.abspath(__file__))
PROTECTED = {
    "test_acceptance.py": [
        "test_c01_laplacian_solver_matches_pinv_oracle", "test_c02_closed_form_pair_solves",
        "test_c03_solver_invariants_fuzzed", "test_c04_hungarian_brute_force_optimality",
        "test_c05_iou_monte_carlo_oracle", "test_c06_kalman_checks",
        "test_c07_matched_pair_noise_reduction", "test_c08_directional_tracking_claim",
        "test_c09_metrics_oracle_exact", "test_c10_lifecycle_conformance",
        "test_c11_cli_determinism"],
    "test_digests.py": ["test_emitted_rows_match_recorded", "test_cli_files_match_recorded",
                        "test_golden_file_matches_recorded"],
    "test_benchmark_workloads.py": ["test_selftest_passes",
                                    "test_benchmark_process_loads_no_test_runner"],
    "test_backend_parity.py": [
        "test_pair_parity", "test_matrix_parity", "test_sparse_matrix_parity",
        "test_exact_cases_on_both_backends", "test_native_rejects_non_box_arrays",
        "test_rigid_motion_invariance", "test_pure_kernel_when_native_does_not_import",
        "test_failed_optional_build_exits_0"],
    "test_cli.py": ["TestTrack::test_long_gap_is_stepped_without_work",
                    "TestEvalAndAnalyze::test_long_gap_is_scored_without_work",
                    "test_out_of_memory_one_line"],
    "test_metrics.py": ["TestSparseFrames::test_empty_frames_cost_no_matching"],
}


def defined_tests(path):
    """The module's test functions, as `name` or `Class::name`."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


def test_protected_tests_are_defined():
    missing = [f"{module}::{name}" for module, names in PROTECTED.items()
               for name in names if name not in defined_tests(os.path.join(HERE, module))]
    assert missing == []
