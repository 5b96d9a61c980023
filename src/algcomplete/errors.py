"""Exception hierarchy shared by all engines."""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for every error raised by this package."""

    def prefixed(self, label: str) -> "AlgebraError":
        """This error with `label: ` before its message; its class and fields are kept."""
        self.args = (f"{label}: {self}",)
        return self


class TableInvalid(AlgebraError):
    """A Cayley table violates the identity/associativity/inverse laws.

    Carries the offending triple (or pair) so the caller can see exactly
    which law failed where.
    """

    def __init__(self, reason: str, witness: tuple = ()):
        super().__init__(f"{reason} (witness: {witness})" if witness else reason)
        self.reason = reason
        self.witness = witness


class ClosureTooLarge(AlgebraError):
    """Generator closure exceeded the configured element cap."""


class SizeCap(AlgebraError):
    """A constructed group would exceed the element cap, DEFAULT_ELEMENT_CAP."""


class SearchBudgetExceeded(AlgebraError):
    """A backtracking search exceeded its node budget."""


class NotNormal(AlgebraError):
    """The given subgroup is not normal in its parent."""


class NotASubgroup(AlgebraError):
    """The given element set is not a subgroup of its parent."""


class CodomainMismatch(AlgebraError):
    """Two homomorphisms were expected to share a codomain but do not."""


class NotProtoComplete(AlgebraError):
    """Center/quotient decomposition requires a proto-complete input."""


class CenterNonTrivial(AlgebraError):
    """An operation requiring a trivial center was called on a group with center."""


class NotCharacteristicallySimple(AlgebraError):
    """Input has a proper nontrivial characteristic subgroup (carried as witness)."""

    def __init__(self, witness):
        super().__init__(f"proper nontrivial characteristic subgroup: {witness}")
        self.witness = witness


class AbelianInput(AlgebraError):
    """An operation restricted to nonabelian groups received an abelian one."""


class ConfigInvalid(AlgebraError):
    """CLI/report configuration is malformed."""


class TheoremCheckFailed(AlgebraError):
    """A computed object contradicts a theorem that the engine checks as it runs.

    These checks are not `assert`s, so they also run under `python -O`.  The
    message names the object and the theorem.
    """

    def __init__(self, obj: str, theorem: str):
        super().__init__(f"theorem check failed for {obj}: {theorem}")


def check_theorem(holds: bool, obj: str, theorem: str) -> None:
    """Raise TheoremCheckFailed(obj, theorem) unless `holds`."""
    if not holds:
        raise TheoremCheckFailed(obj, theorem)
