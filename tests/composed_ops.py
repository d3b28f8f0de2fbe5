"""Elementwise difference and product, composed from autodiff primitives.

No package code needs them, so they live with the tests: the single-step
recurrence references and several gradient checks are written with them.
``sub`` is ``a + (-1 * b)``, and ``mul`` is a batch of 1x1 matrix products,
one multiply per element, so both give the bits of numpy's ``a - b`` and
``a * b``, with numpy broadcasting.
"""

import numpy as np

from optionlab import autodiff as ad


def sub(a, b):
    return ad.add(a, ad.scale(b, -1.0))


def mul(a, b):
    shape = np.broadcast_shapes(a.shape, b.shape)
    a, b = (ad.reshape(t, t.shape + (1, 1)) for t in (a, b))
    return ad.reshape(ad.matmul(a, b), shape)
