"""The axioms of a based ring that its structure constants alone decide
(Etingof, Gelaki, Nikshych and Ostrik, *Tensor Categories*, 2015, section
3.1): the test-side reading of a ``ring.Table``'s ``whole()``."""

import numpy as np


def based_ring_failures(t: np.ndarray, unit: int) -> list[str]:
    """The axioms that the structure constants t[x, y, z], with unit basis
    element ``unit``, break, by name:

    - "integers": every entry is a nonnegative integer;
    - "unit": unit x = x = x unit for every basis element x;
    - "dual": for every x exactly one y has t[x, y, unit] = 1, this y = x*,
      every other t[x, y, unit] is 0, and x -> x* is an involution;
    - "S3 symmetry": t[x, y, z] = t[x*, z, y] = t[z, y*, x].
    """
    n = len(t)
    eye = np.eye(n, dtype=np.int64)
    failures = []
    if t.dtype != np.int64 or (t < 0).any():
        failures.append("integers")
    if (t[unit] != eye).any() or (t[:, unit] != eye).any():
        failures.append("unit")
    at_unit = t[:, :, unit]
    star = at_unit.argmax(axis=1)
    if (at_unit != eye[star]).any() or (star[star] != np.arange(n)).any():
        return failures + ["dual"]
    if ((t != t[star].transpose(0, 2, 1)).any()
            or (t != t[:, star].transpose(2, 1, 0)).any()):
        failures.append("S3 symmetry")
    return failures
