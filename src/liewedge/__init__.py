"""Lie wedges of controlled quantum and classical Markovian semigroups.

The package builds coherently controlled Lindblad generators, closes their
Lie wedge under conjugation by the controllable subgroup, tests Hamiltonian
and weak-Hamiltonian controllability conditions, probes whether a wedge is
a Lie semialgebra, and samples the reachable set of channels.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .matcore import (RANK_TOL, Subspace, comm, expm, fro, inner,
                      orthonormal_span)
from .lindblad import (ControlSystem, ad_hat, choi_matrix, cptp_audit,
                       gks_dissipator, gks_margin, gks_term,
                       is_trace_preserving, is_unital, lindbladian,
                       pauli_basis, propagator, ptm_rep, superop_from_ptm,
                       unvec, vec)
from .liealg import (ConditionReport, cartan_split, check_conditions,
                     lie_closure, orthocomplement, subspace_equal,
                     subspace_leq)
from .channels import (ChannelSpec, KrausSet, build_system, example1, example2,
                       example3, example3_delta, k_component, kraus_family,
                       kraus_rank, kraus_superop, p_component, sigma, sigma2)
from .wedge import (Cone, ConjugationFamily, Wedge, cone_contains,
                    cone_residual, dual_cone_contains, dual_cone_margin,
                    initial_wedge, lineality, majorized, outer_contains,
                    saturate, wedge_contains)
from .semialgebra import (BchWitness, bch, bch_witness, expected_tangent,
                          orbit_wedge, semialgebra_case, semialgebra_probe,
                          tangent_space)
from .reachable import (Schedule, contraction_audit, propagate,
                        random_schedule, sample_reachable, steer)

__all__ = [
    "__version__",
    "RANK_TOL", "Subspace", "comm", "expm", "fro", "inner",
    "orthonormal_span",
    "ControlSystem", "ad_hat", "choi_matrix", "cptp_audit", "gks_dissipator",
    "gks_margin", "gks_term", "is_trace_preserving", "is_unital", "lindbladian",
    "pauli_basis", "propagator", "ptm_rep", "superop_from_ptm", "unvec", "vec",
    "ConditionReport", "cartan_split", "check_conditions", "lie_closure",
    "orthocomplement", "subspace_equal", "subspace_leq",
    "ChannelSpec", "KrausSet", "build_system", "example1", "example2",
    "example3", "example3_delta", "k_component", "kraus_family", "kraus_rank",
    "kraus_superop", "p_component", "sigma", "sigma2",
    "Cone", "ConjugationFamily", "Wedge", "cone_contains", "cone_residual",
    "dual_cone_contains", "dual_cone_margin", "initial_wedge", "lineality",
    "majorized", "outer_contains", "saturate", "wedge_contains",
    "BchWitness", "bch", "bch_witness", "expected_tangent", "orbit_wedge",
    "semialgebra_case", "semialgebra_probe", "tangent_space",
    "Schedule", "contraction_audit", "propagate", "random_schedule",
    "sample_reachable", "steer",
]
