"""The iteration matrices of the four methods, for the tests to measure.

A method's error operator I - G H, taken from the method table's own
`Method.error`, is what every spectral radius in sdnfilt is the radius
of. The tests take it here as an instrument: Lanczos on it, through
`filters.power_spectral_radius`, is the reference that the factor and
closed-form radii are checked against.
"""

from __future__ import annotations

from sdnfilt.filters import GraphFilter
from sdnfilt.solvers import prepare_params


def iteration_matrix(h: GraphFilter, method: str, params: dict | None = None):
    """Error-propagation operator of a method as the (n, matvec) pair
    `power_spectral_radius` takes, in symmetric similarity form so its
    spectral radius can be taken by a symmetric eigensolver.

    pgda:  I - P^{-1} H^T H P^{-1}
    spgda: I - P^{-1/2} H P^{-1/2}
    opgd:  I - beta H^T H
    imia:  I - D^{1/2} H D^{1/2}   (requires positive diagonal D and symmetric H)
    """
    return h.graph.n, prepare_params(h, method, params)[method].error()
