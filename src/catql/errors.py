"""Exception hierarchy shared by all catql modules."""


class CatqlError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(CatqlError):
    """Malformed schema, path, or mapping."""


class NormalizationInconclusive(CatqlError):
    """Path rewriting exhausted its step bound before reaching a fixpoint."""

    def __init__(self, path, bound):
        super().__init__(
            f"path normalization inconclusive for {path} within bound {bound}"
        )
        self.path = path
        self.bound = bound


class NotSaturated(CatqlError):
    """Morphism enumeration still finds new classes at the length bound."""

    def __init__(self, schema_name, node, bound):
        super().__init__(
            f"schema {schema_name!r} has (potentially) infinitely many morphisms "
            f"out of {node!r}; enumeration not saturated at bound {bound}"
        )
        self.node = node
        self.bound = bound


class ValidationError(CatqlError):
    """An instance or mapping violates its invariants."""


class InconsistencyError(CatqlError):
    """Sigma forced an attribute class onto two distinct constants."""


class LimitExceeded(CatqlError):
    """A search exceeded its caller-supplied limit."""


class ParseError(CatqlError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class TypecheckError(CatqlError):
    """A query does not typecheck against its schema."""


class DesugarError(CatqlError):
    """The query cannot be expressed as a single sigma.pi.delta migration."""


class SqlImportError(CatqlError):
    """The SQL text falls outside the restricted dialect or is inconsistent."""


class SqlExportError(CatqlError):
    """A schema name cannot be written as an identifier of the SQL dialect."""


class ScriptError(CatqlError):
    """A script statement failed; carries the statement's source position."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (statement at line {line})"
        super().__init__(message)
        self.line = line
