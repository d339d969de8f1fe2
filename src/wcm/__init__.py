"""Weighted-countermonotonic copulas, sharp variance bounds for weighted sums
of uniforms, and the marginal-free SIX herd behavior index."""

__version__ = "0.1.0"

from . import bounds, copula, data, indices, weights

# The package namespace is every module's ``__all__``, so each list is kept once.
__all__ = ["__version__"]
for _module in (weights, copula, bounds, indices, data):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _module
