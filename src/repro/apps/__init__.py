"""Domain operators for spectral-element CFD, expressed in CFDlang.

The Inverse Helmholtz operator (Sec. II, Fig. 1) is the paper's evaluation
kernel; interpolation and gradient are the "simpler operators which are
similarly relevant in CFD simulations" that it subsumes.
"""

from repro.apps.helmholtz import (
    HELMHOLTZ_DSL,
    inverse_helmholtz_program,
    inverse_helmholtz_source,
    reference_inverse_helmholtz,
    make_element_data,
)
from repro.apps.interpolation import (
    interpolation_program,
    reference_interpolation,
)
from repro.apps.gradient import gradient_program, reference_gradient
from repro.apps.preconditioner import (
    preconditioner_program,
    reference_preconditioner,
)
from repro.apps.workloads import (
    SUITE_PROGRAMS,
    WORKLOAD_SUITES,
    Workload,
    make_workload,
    suite_program,
)

__all__ = [
    "preconditioner_program",
    "reference_preconditioner",
    "HELMHOLTZ_DSL",
    "inverse_helmholtz_program",
    "inverse_helmholtz_source",
    "reference_inverse_helmholtz",
    "make_element_data",
    "interpolation_program",
    "reference_interpolation",
    "gradient_program",
    "reference_gradient",
    "Workload",
    "WORKLOAD_SUITES",
    "SUITE_PROGRAMS",
    "make_workload",
    "suite_program",
]
