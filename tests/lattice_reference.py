"""Enumerate-then-clip reference for the lattice points: every one of the

(2A+1)^k coefficient combinations is built, made unique, and only then
clipped to the window. It is the direct statement of the lattice that the
run-merging ``_lattice_points`` in ``spnd.extensions`` must reproduce value
for value, and it costs time and memory exponential in the basis size."""

import numpy as np


def reference_combinations(basis, alpha_bound):
    """Sorted unique values of sum a_i*d_i over |a_i| <= alpha_bound."""
    values = np.zeros(1, dtype=np.int64)
    alphas = np.arange(-alpha_bound, alpha_bound + 1, dtype=np.int64)
    for d in basis:
        values = np.unique(values[:, None] + d * alphas[None, :])
    return values


def reference_lattice_residues(spec, m, f_bound):
    """Lattice points within the flow bound, coefficients up to m^2 * K."""
    values = reference_combinations(spec.basis, m * m * spec.bound)
    return values[(values >= -f_bound) & (values <= f_bound)]


def reference_unrepresentable(graph, spec):
    """The edges whose capacity needs a coefficient above K."""
    members = set(reference_combinations(spec.basis, spec.bound).tolist())
    return [e for e in graph.edges if e.capacity not in members]
