"""Dimension toolkit for shrinking parallelepiped targets under products
of beta-transformations.

The package is organised bottom-up:

- ``beta_dynamics``: cylinder combinatorics of a single transformation.
- ``polygons``: small convex-polygon helpers used by the planar lab.
- ``parallelepiped_geometry``: pivoted orthogonalisation and box bounds.
- ``hausdorff_content``: content formulas and mass distribution bounds.
- ``dimension_engine``: the dimension formula, exact and limit modes.
- ``numerical_lab``: planar verification of covers and measure bounds.
- ``cli_io``: the ``beta-targets`` command line entry point.

The package exports the ``__all__`` of each library module, which is the
one list of that module's public names; ``polygons`` and ``cli_io`` are
reached through their modules.
"""
from __future__ import annotations

from . import (beta_dynamics, dimension_engine, errors, hausdorff_content,
               numerical_lab, parallelepiped_geometry)
from .beta_dynamics import *  # noqa: F401,F403
from .dimension_engine import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .hausdorff_content import *  # noqa: F401,F403
from .numerical_lab import *  # noqa: F401,F403
from .parallelepiped_geometry import *  # noqa: F401,F403

__all__ = [name for module in (beta_dynamics, dimension_engine, errors,
                               hausdorff_content, numerical_lab,
                               parallelepiped_geometry)
           for name in module.__all__]

__version__ = "0.1.0"
