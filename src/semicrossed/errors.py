"""Exception types shared across the package."""


class SemicrossedError(Exception):
    """Base class for all package-specific errors."""


class DeadState(SemicrossedError):
    """A symbol has no admissible follower (empty transition row)."""


class NotSurjective(SemicrossedError):
    """A symbol has no admissible predecessor (empty transition column);
    the shift map would not be onto."""


class GeneratorExhausted(SemicrossedError):
    """An itinerary stream was asked for symbols beyond its certified
    admissibility horizon."""


class WordInadmissible(SemicrossedError):
    """A word violates the transition matrix."""


class Overflow(SemicrossedError):
    """An enumeration exceeded its configured cap.  The message suggests a
    cheaper mode where one exists (e.g. beam search instead of exhaustive
    word enumeration)."""


class NotUnitModulus(SemicrossedError):
    """A circle parameter was not on the unit circle."""


class SeparationFailure(SemicrossedError):
    """No itinerary window of permitted width separates the truncation
    coordinates; the point is too repetitive (e.g. periodic) for the
    nest check.  ``periodic`` is set when the orbit positions provably
    repeat, so that no window of any width could separate them."""

    def __init__(self, message: str, periodic: bool = False):
        super().__init__(message)
        self.periodic = periodic


class ConfigError(SemicrossedError):
    """A system configuration file is malformed or inconsistent."""


class PolicyError(ValueError):
    """A ``TruncationPolicy`` setting breaks its rule: ``field`` names it, ``reason`` says why."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field, self.reason = field, reason
