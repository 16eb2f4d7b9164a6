"""Exception hierarchy for the ldbig package."""


class LdbError(Exception):
    """Base class for all ldbig errors."""


class InterfaceMismatch(LdbError):
    """Two bigraphs cannot be composed: shared interface differs."""


class SignatureMismatch(LdbError):
    """Pattern and host bigraphs use different signatures."""


class ComposeError(LdbError):
    """Base class for compose-file frontend errors."""


class ComposeSyntaxError(ComposeError):
    """Malformed YAML or a value outside the accepted shape."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class UnsupportedKey(ComposeError):
    """A key outside the supported compose subset, reported with its path."""

    def __init__(self, path, message=None):
        super().__init__(message or f"unsupported key: {path}")
        self.path = path


class DanglingReference(ComposeError):
    """A link/network/volume reference that resolves to nothing."""

    def __init__(self, path, message=None):
        super().__init__(message or f"dangling reference: {path}")
        self.path = path


class AnalysisError(LdbError):
    """Base class for analysis-stage errors."""


class NotAComposite(AnalysisError):
    """A container, network or volume node of the analysed bigraph has no
    name."""


class UnknownNetwork(AnalysisError):
    """A security order names a network absent from the bigraph."""


class CyclicOrder(AnalysisError):
    """The transitive closure of a security order puts a network above itself."""
