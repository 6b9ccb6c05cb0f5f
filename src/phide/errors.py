"""Exception types shared across the library."""


class PhideError(Exception):
    """Base class for library errors."""


class WellPosednessViolation(PhideError):
    """The fixed-point relation (omega, mu(h)) = h fails: no history, several
    histories, or an information map that peeks at future components or
    reveals a component the histories do not have."""


class ZeroReachLabel(PhideError):
    """A conditional expectation was requested on a label with zero mass."""


class EnumerationTooLarge(PhideError):
    """A deterministic-policy enumeration exceeded the configured cap."""


class IllegalSupport(PhideError):
    """A local policy puts mass on an action outside the legal action set."""


class ConfigError(PhideError):
    """Invalid experiment configuration."""


class BatchedRun(PhideError):
    """A single-run result was read from a solver loop of several stacked
    repeats."""


class InvalidRelaxation(PhideError, ValueError):
    """A ``RelaxationProblem`` that cannot be posed: a penalty weight that
    is not positive and finite, a relaxed map that does not refine the
    original, or a base policy without full support."""


class InvalidGame(PhideError, ValueError):
    """A game or a player index that cannot be posed: Nature weights that
    do not match the states, lie outside [0, 1] or do not sum to 1, no
    stages or a stage without actions, a stage owner or a requested player
    outside the game's players, or a reward of the wrong shape or not
    finite; a zoo spec that builds no game; or what a game operation cannot
    use: progressive hiding on a game that is not a team game, a
    best-response ``values`` array of the wrong shape or no policy for the
    other players' stages, or a profile that is not deterministic."""


class InvalidMap(PhideError, ValueError):
    """An information map that cannot be built or used: a reveal token of
    an unknown kind or without an integer index, a stage count other than
    the game's, or a callable stage where only reveal tokens serialize.
    The message names the map."""


class InvalidSolver(PhideError, ValueError):
    """A solver loop, penalty schedule or learner bank that cannot be posed:
    an unknown mode, schedule kind or learner kind, no seed, a penalty
    weight or factor out of range, an FTRL step size that is not positive
    and finite, initial rows of the wrong shape or not finite, or a regret
    report of a run with no iterations.  The message names the bad value."""
