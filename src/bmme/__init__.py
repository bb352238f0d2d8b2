"""Block-alternating Bregman majorization-minimization with extrapolation.

Every public name is imported from its own module; the package root holds
only ``__version__``. :mod:`bmme.solver` is the solver core,
:mod:`bmme.bregman` the kernel/divergence primitives and certification
helpers, :mod:`bmme.onmf` and :mod:`bmme.matcomp` the two problems
(penalized orthogonal NMF and exponentially regularized matrix completion),
:mod:`bmme.datakit` synthetic data and file formats, and :mod:`bmme.verify`
the independent-oracle checks.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
