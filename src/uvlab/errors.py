"""Exception types shared across the package."""


class CapacityError(RuntimeError):
    """A requested object exceeds the desk-scale caps (state dimension,
    vertex count, brute-force search size, operator dimension)."""


class AddressError(ValueError):
    """A register address does not exist or does not match the gate arity."""


class ShapeMismatchError(ValueError):
    """Two states that must share a register shape do not."""


class ParseError(ValueError):
    """Malformed SGC text.  Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class BudgetError(RuntimeError):
    """Exact k-proof consistency would allocate more than the budget
    ``bellqma.ENUMERATION_BUDGET`` on both of its paths: the series over the
    components of the conflict pairs and the Moebius sum over the N independent
    sets of the conflict core, N * (k + L + 1) entries for L member slots each; the
    caller should switch to Monte Carlo.  Both are sized before any table is built."""
