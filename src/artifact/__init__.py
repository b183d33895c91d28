"""Spectral-geometry toolkit.

Discretizes Hodge-de Rham Laplacians on embedded surfaces (discrete
exterior calculus), Dirichlet Laplacians with potential, and the Kohn
sublaplacian on Heisenberg-group box domains; computes certified low
spectra; and audits a catalog of universal eigenvalue inequalities,
reporting left side, right side, and slack per inequality instance.

Set ``SPECTRA_THREADS`` in the environment before first import to cap
the linear algebra thread pools.
"""

import os as _os

_threads = _os.environ.get("SPECTRA_THREADS")
if _threads:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .mesh import (MeshError, TriangleMesh, clifford_torus, flat_rectangle,
                   generate, geodesic_cap, icosphere, load_mesh, save_mesh)
from .dec import (DecComplex, EigenproblemPair, assert_symmetric,
                  dirichlet_laplacian, exterior_derivative, hodge_laplacian)
from .eigensolve import (CertificationError, EigensolveError, SpectrumResult,
                         smallest_eigenpairs, solve_pair)
from .curvature import (CurvatureData, PhiField, curvature_data,
                        gaussian_curvature, mean_curvature_vector, phi_field,
                        second_fundamental_norm)
from .commutator import (CommutatorError, degenerate_orthogonality_check,
                         lp_identity_residual, run_trials)
from .heisenberg import (HeisenbergGrid, build_kohn_laplacian,
                         heisenberg_grid, kohn_spectrum)
from .audit import (AuditError, DensityField, audit_closed, audit_dirichlet,
                    audit_kohn, closed_spectra, discretization_allowance,
                    emit_report, integrate_against, reconstruct_density,
                    whitney_face_mass)

__version__ = "0.1.0"
