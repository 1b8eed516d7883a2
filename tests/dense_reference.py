"""Dense reference for the tests: the joint propagator U(t2, t1) as a
matrix, built column by column from a model's `apply_propagator`. The
package itself never forms it."""

import numpy as np


def dense_propagator(model, t1: float, t2: float) -> np.ndarray:
    d = model.dim_s * model.dim_e
    return np.column_stack([model.apply_propagator(t1, t2, e) for e in np.eye(d, dtype=complex)])
