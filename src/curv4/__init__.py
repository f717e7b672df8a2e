"""curv4: numerical verification lab for curvature identities of harmonic
2-forms on oriented Riemannian 4-manifolds."""

__version__ = "0.1.0"


class Curv4Error(Exception):
    """Base of curv4's errors; the CLI exits with `exit_code` (2: bad input)."""

    exit_code = 2
