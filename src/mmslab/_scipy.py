"""The scipy functions mmslab uses, each imported on its first call.

Importing scipy's subpackages costs about 0.6 s (2-vCPU machine), which most
commands never need, so no mmslab module imports scipy at module level.  Each
name here is a plain function made by ``_shim`` that imports its subpackage
on each call and forwards every argument; the modules that use one import it
by that name (``observables.linprog`` and so on), so it stays a module global
that can be replaced from outside.  A new use of scipy adds one line here.
"""

import importlib


def _shim(module, name):
    """A function that calls ``module.name``, importing ``module`` when called."""

    def forward(*args, **kwargs):
        return getattr(importlib.import_module(module), name)(*args, **kwargs)

    return forward


linprog = _shim("scipy.optimize", "linprog")
erfinv = _shim("scipy.special", "erfinv")
ndtri = _shim("scipy.special", "ndtri")
dgttrf = _shim("scipy.linalg.lapack", "dgttrf")
dgttrs = _shim("scipy.linalg.lapack", "dgttrs")
connected_components = _shim("scipy.sparse.csgraph", "connected_components")
