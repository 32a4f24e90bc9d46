"""The package's public names resolve, appear once, and keep removed API out."""

import torus_holonomy

# Names once exported that only tests called; they are gone from the package.
_REMOVED = (
    "wrap_angles",
    "evolve_dynamic",
    "dynamic_propagator",
    "restrict_to_eigenspace",
    "SpectralComparison",
    "multiplication_operator",
    "canonical_offsets",
    "interior_modes",
    "ModeIndex",
)


def test_exports_resolve_once_and_leave_out_removed_names():
    exported = torus_holonomy.__all__
    assert [name for name in exported if not hasattr(torus_holonomy, name)] == []
    assert len(set(exported)) == len(exported)
    assert [name for name in _REMOVED if name in exported or hasattr(torus_holonomy, name)] == []
