"""The exceptions that do not mean a bad argument, one class per exit code.

    class               exit  raised when
    InadmissibleTriple  3     (n, p, k) is off the table and not allowed
    IntegrationFailure  4     |phi| left 1e3 phi0, a rejected step fell
                              below 1e-13/(k-1), or r^2 + rho^2 stopped
                              rising along the profile
    NotApplicable       6     the report does not apply to the triple's
                              stability type or to the orbit's crossings

Every other bad input raises plain ValueError, exit 2 (cli.main).
"""


class InadmissibleTriple(ValueError):
    """(n, p, k) is not in the admissibility table and overriding was not requested."""


class IntegrationFailure(RuntimeError):
    """The integration of the reduced system could not produce the orbit."""


class NotApplicable(ValueError):
    """The requested report does not apply to these parameters or this orbit."""
