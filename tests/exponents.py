"""Single exponents of cocycles and phases, looked up by element: reads that
only the tests make; the package reads the exponent arrays whole."""


def exponent(omega, g, h) -> int:
    """The exponent of omega(g, h), mod omega.modulus."""
    index = omega.group.index_of
    return int(omega.arr[index(g), index(h)])


def phase_exponent(phi, g) -> int:
    """The exponent of phi(g), mod phi.modulus."""
    return int(phi.values[phi.group.index_of(g)])
