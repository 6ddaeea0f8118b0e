"""Mixed multiscale solver for heterogeneous Darcy flow.

Lowest-order Raviart-Thomas discretization on structured two-scale
grids, a spectrally enriched multiscale coarse space, a two-grid
preconditioner acting on the divergence-free subspace, and a
sequential two-phase transport loop on top.
"""

from .mesh import build_grid, count_dofs
from .mixed_fem import PermeabilityField, MixedOperators, assemble_operators
from .sparse_linalg import (PcgBreakdownError, SingularMatrixError,
                            condition_estimate, factor, pcg)
from .coarse_space import (CoarseBasis, build_gmsfem_space, build_msfem_space,
                           build_rt0_space, build_space, coarse_operator,
                           face_eigenpairs)
from .preconditioner import (SolverSettings, SolveResult, build_preconditioner,
                             preprocess, recover_pressure, solve)
from .two_phase import (FluidModel, IMPESConfig, TransportState, UpwindFlow,
                        WellConfig, five_spot_wells, fractional_flow,
                        impes_run, mobility_field, pressure_step,
                        total_mobility, transport_step)
from .bench_cli import (FieldSpec, bench_field, read_raster, synth_field,
                        write_raster, write_vtk)

__all__ = [
    "build_grid", "count_dofs",
    "PermeabilityField", "MixedOperators", "assemble_operators",
    "PcgBreakdownError", "SingularMatrixError", "condition_estimate",
    "factor", "pcg",
    "CoarseBasis", "build_gmsfem_space", "build_msfem_space",
    "build_rt0_space", "build_space", "coarse_operator", "face_eigenpairs",
    "SolverSettings", "SolveResult", "build_preconditioner", "preprocess",
    "recover_pressure", "solve",
    "FluidModel", "IMPESConfig", "TransportState", "UpwindFlow", "WellConfig",
    "five_spot_wells", "fractional_flow", "impes_run", "mobility_field",
    "pressure_step", "total_mobility", "transport_step",
    "FieldSpec", "bench_field", "read_raster", "synth_field",
    "write_raster", "write_vtk",
]
