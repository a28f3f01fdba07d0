"""The scipy functions mmslab uses, each imported on its first call.

Importing scipy's subpackages costs about 0.6 s (2-vCPU machine), which most
commands never need, so no mmslab module imports scipy at module level.  Each
shim here has the name of the function it wraps and forwards every argument;
the modules that use one import it by that name (``observables.linprog`` and
so on), so it stays a module global that can be replaced from outside.  A new
use of scipy gets a shim of the same form.
"""


def linprog(*args, **kwargs):
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def erfinv(*args, **kwargs):
    from scipy.special import erfinv

    return erfinv(*args, **kwargs)


def ndtri(*args, **kwargs):
    from scipy.special import ndtri

    return ndtri(*args, **kwargs)


def solve_banded(*args, **kwargs):
    from scipy.linalg import solve_banded

    return solve_banded(*args, **kwargs)


def pdist(*args, **kwargs):
    from scipy.spatial.distance import pdist

    return pdist(*args, **kwargs)


def squareform(*args, **kwargs):
    from scipy.spatial.distance import squareform

    return squareform(*args, **kwargs)


def connected_components(*args, **kwargs):
    from scipy.sparse.csgraph import connected_components

    return connected_components(*args, **kwargs)
