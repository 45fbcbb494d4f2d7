"""Constraint-aware screening of spurious eigenmodes.

Spectral discretizations of boundary-value problems produce eigenmodes
that violate constraints hidden in the dynamics, and those modes
pollute the computed spectrum.  This package states boundary conditions
as explicit constraint rows, compresses the operators onto the
nullspace of the stacked implicit constraints, scores every computed
mode by how badly it breaks the constraint structure, and prunes
reduced models down to the trustworthy modes.

The modules split along those lines: ``chebyshev`` holds the
collocation primitives, ``constrained`` the compression machinery,
``quality`` the per-mode scores, ``problems`` the benchmark systems,
``reduction`` the ranked truncation and time stepping, ``experiments``
the depth sweeps, and ``cli`` the command-line front end.
"""

from . import chebyshev, constrained, errors, experiments, problems, quality, reduction
from .chebyshev import *
from .constrained import *
from .errors import *
from .experiments import *
from .problems import *
from .quality import *
from .reduction import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (chebyshev, constrained, errors, experiments, problems, quality, reduction)
    for name in module.__all__
]
