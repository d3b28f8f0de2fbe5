"""Test-local operations on top of the autodiff engine.

No package code needs them, so they live with the tests: the single-step
recurrence references and several gradient checks are written with them.
``sub`` is ``a + (-1 * b)``, and ``mul`` is a batch of 1x1 matrix products,
one multiply per element, so both give the bits of numpy's ``a - b`` and
``a * b``, with numpy broadcasting.  ``poly_basis`` is the polynomial basis
of a KAN layer on its own, one tape record built on the two kernels that
``kan_contract`` runs, so the basis and its derivative recurrence can be
checked apart from the contraction.
"""

import numpy as np

from optionlab import autodiff as ad


def sub(a, b):
    return ad.add(a, ad.scale(b, -1.0))


def mul(a, b):
    shape = np.broadcast_shapes(a.shape, b.shape)
    a, b = (ad.reshape(t, t.shape + (1, 1)) for t in (a, b))
    return ad.reshape(ad.matmul(a, b), shape)


def poly_basis(family, degree, x):
    """P_0(x) .. P_degree(x) of one polynomial family, stacked on a new
    trailing axis (shape x.shape + (degree + 1,)); the backward rule returns
    sum_n g[..., n] * dP_n/dx by the family's derivative recurrence."""
    ad._check_poly("poly_basis", family, degree)
    p = ad._poly_stack(family, degree, x.data)
    return ad._emit("poly_basis", np.moveaxis(p, 0, -1).copy(), (x,),
                    lambda g: (ad._poly_grad(family, x.data, p, np.moveaxis(g, -1, 0)),))
