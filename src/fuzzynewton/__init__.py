"""Fuzzy-number arithmetic and a scalarized Newton method for fuzzy
optimization.

Fuzzy quantities are represented by their alpha-level intervals on a
uniform grid.  A fuzzy-valued objective is reduced to a crisp function by
integrating its level endpoints over alpha; Newton's method on that
scalarization finds candidate minimizers, which can then be audited for
stationarity and non-dominance under the fuzzy-max order.

The public names are those in each module's ``__all__``.
"""

from . import defuzzify, errors, fuzzy_core, level_calculus, newton_solver, problems

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (errors, fuzzy_core, level_calculus, newton_solver, defuzzify,
                problems):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _module
