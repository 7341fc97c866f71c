"""The public names of the `hofq` package, pinned.

Adding a name to the package or removing one is a deliberate edit of PUBLIC,
noted in the change that makes it.  Submodules and names that start with `_`
are left out.
"""

import types

import hofq

PUBLIC = {
    # engine
    "ExistenceOutcome", "QTrace", "TwoTermSpec", "compute_c",
    "compute_f_from_q", "compute_q", "compute_q_batch", "compute_two_term",
    "hofstadter_spec", "quasipolynomial_spec", "tanny_spec", "v_variant_spec",
    # errors
    "CapExceeded", "InvalidFSpec", "InvalidQ", "SequenceDied",
    # fspec
    "ConstLimit", "DiffBits", "FloorRatio", "FracPowerSum", "FSpec",
    "GammaSq", "Linear", "ModM", "OneMinusDelta", "Perturbed", "Prefix",
    "Shifted", "Zeros", "as_fspec", "enumerate_slow_prefixes",
    "floor_alpha_interval", "parse_fspec", "shift_f",
    # kernels
    "BACKEND",
    # triangle
    "ContainmentReport", "MinReport", "TriangleTable", "build_triangle",
    "check_containment", "check_min", "envelope", "min_witness_prefix",
    # verify
    "VERIFIERS", "VerifierResult", "run_suite",
    # analysis
    "ApproximationReport", "ConstLimitModel", "PerturbationTrace",
    "PowerAnsatzModel", "SimilarityMatch", "SqrtAlphaModel", "approx_error",
    "export_figure_data", "perturb_compare", "propose_shifts",
    "scan_self_similarity",
}


def test_public_names_are_the_pinned_list():
    names = {name for name, value in vars(hofq).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert sorted(names - PUBLIC) == [], "new public names"
    assert sorted(PUBLIC - names) == [], "public names gone"
