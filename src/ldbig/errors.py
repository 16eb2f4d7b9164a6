"""Exception hierarchy for the ldbig package."""


class LdbError(Exception):
    """Base class for all ldbig errors."""


class InterfaceMismatch(LdbError):
    """Two bigraphs cannot be composed: shared interface differs."""


class SignatureMismatch(LdbError):
    """Pattern and host bigraphs use different signatures."""


class ComposeSyntaxError(LdbError):
    """Malformed YAML or a value outside the accepted shape."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class UnsupportedKey(LdbError):
    """A key outside the supported compose subset, reported with its path."""

    def __init__(self, path, message=None):
        super().__init__(message or f"unsupported key: {path}")
        self.path = path


class DanglingReference(LdbError):
    """A link/network/volume reference that resolves to nothing."""

    def __init__(self, path, message=None):
        super().__init__(message or f"dangling reference: {path}")
        self.path = path


class NotAComposite(LdbError):
    """A container, network or volume node of the analysed bigraph has no
    name."""


class UnknownNetwork(LdbError):
    """A security order names a network absent from the bigraph."""


class CyclicOrder(LdbError):
    """The transitive closure of a security order puts a network above itself."""
