"""Typed errors shared across the package."""


class WphError(Exception):
    """Base class for all package errors."""


class UnsupportedRingError(WphError):
    """Ring admits scalar arithmetic but not normal forms / homology."""


class CompositionNotZeroError(WphError):
    """Two boundary matrices handed to a homology computation do not compose to zero."""


class MissingWeightError(WphError):
    """A vertex needed by a weighted computation has no weight."""


class NonInvertibleWeightError(WphError):
    """A weight that must be a unit of the coefficient ring is not."""


class ImageNotInOmegaError(WphError):
    """The chain image of a generator cannot be expressed in the target basis."""


class HomotopyIdentityFailedError(WphError):
    """The certified chain-homotopy identity failed on a generator (soundness bug)."""


class NotAMorphismError(WphError):
    """A claimed (hyper)graph or path-complex morphism violates its defining diagram."""


class SchemaError(WphError):
    """A document violates the JSON schema (unknown field, wrong type, bad version)."""


class InvariantError(WphError):
    """A structurally valid document, or a computed structure, violates a domain invariant."""
