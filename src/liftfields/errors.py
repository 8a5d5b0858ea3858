"""The refusals a layer raises for ``cli.main`` to report; each keeps its builtin base."""


class Refusal(Exception):
    """Reported as ``{prefix}: {message}`` on stderr, with exit code ``exit_code``."""
    exit_code, prefix = 4, "inconsistent"  # a fault's, as for any other ValueError


class HypothesisError(Refusal, ValueError):
    """An operation's mathematical hypothesis fails."""
    exit_code, prefix = 1, "hypothesis violated"


class NotFiniteMultiplicityError(Refusal, ValueError):
    """No Nakayama exponent is found below the order cap."""
    exit_code, prefix = 1, "hypothesis violated"


class NotLiftableError(Refusal, ValueError):
    """A field that does not lift, with its obstructed branch and jet degree."""
    exit_code, prefix = 1, "hypothesis violated"

    def __init__(self, message: str, branch: str, obstruction_degree: int):
        super().__init__(message)
        self.branch, self.obstruction_degree = branch, obstruction_degree


class ResourceCapError(Refusal, RuntimeError):
    """The scan cap was reached before the question could be decided."""
    exit_code, prefix = 2, "cap reached"


class InputError(Refusal, ValueError):
    """The input is not a valid germ, unfolding or diffeomorphism pair."""
    exit_code, prefix = 3, "error"


class ParseError(Refusal, ValueError):
    """Syntax or semantic error in a germ document, with location."""
    exit_code, prefix = 3, "error"

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line, self.col = line, col


class PowerTooLargeError(ParseError):
    """A power whose expansion is too large to finish, refused unexpanded."""
    exit_code, prefix = 2, "cap reached"


class ConsistencyError(Refusal, RuntimeError):
    """Two independent computations of the same quantity disagree."""
