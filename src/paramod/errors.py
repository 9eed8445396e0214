"""Exception types shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.

    Raised when two independent computations of the same quantity disagree
    (orbit sizes vs. cover degrees, chi ledgers vs. stated dimension vectors,
    and so on).  This never fires on a correct build; the CLI maps it to
    exit code 1.
    """


class InputError(ValueError):
    """A check on input from outside the program failed.

    Raised only by the checks that read what a caller hands in: the parsers,
    a polarization type, a rank, a torsion datum, a matrix that must be a
    group element, and the CLI's generator names and forest files.  The CLI
    maps it to exit code 2, and a plain ValueError, a bug, to exit 1.
    Callers that catch ValueError catch it too.
    """


# the interpreter refuses str() of an int with more digits than
# sys.get_int_max_str_digits(); the CLI reports an output that holds one so
TOO_MANY_DIGITS = "the output holds an integer with more digits than Python writes as text"
