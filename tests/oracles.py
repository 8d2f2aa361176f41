"""Independent references for the tests: slow, dense, and separate from the code they check."""

import numpy as np

DENSE_CUTOFF = 4000


def lamp_dense(op) -> np.ndarray:
    """The LAMP operator Gamma of a `spectral.LampOperator` as a dense p x p matrix."""
    if op.p > DENSE_CUTOFF:
        raise ValueError(f"dense assembly limited to p <= {DENSE_CUTOFF}")
    m = op.data_apply(np.eye(op.p))
    return op.precond_apply(m) / op.delta
