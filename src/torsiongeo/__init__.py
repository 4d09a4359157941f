"""torsiongeo: verification toolkit for Riemannian geometries whose
torsion is a skew-symmetric 3-form.

Every name is imported from the submodule that defines it (the README
layout table lists them); the package root holds only ``__version__``.
Only ``dilaton`` imports scipy.
"""

__version__ = "0.1.0"
