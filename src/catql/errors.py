"""Exception hierarchy shared by all catql modules."""


class CatqlError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(CatqlError):
    """Malformed schema, path, or mapping."""


class NormalizationInconclusive(CatqlError):
    """Completion of a schema's equations ran out of work before it converged."""

    def __init__(self, schema_name, limit, rules, pairs, letters):
        super().__init__(
            f"completion of schema {schema_name!r} did not converge within {limit} units "
            f"of work: {rules} rules made, {pairs} critical pairs checked, {letters} "
            f"letters rewritten"
        )
        self.rules = rules
        self.pairs = pairs
        self.letters = letters


class NotSaturated(CatqlError):
    """A node has infinitely many morphisms out of it."""

    def __init__(self, schema_name, node, path, state):
        super().__init__(
            f"schema {schema_name!r} has infinitely many morphisms out of {node!r}: "
            f"the normal form {path} ends twice in {state} (the same node, reached by the "
            f"same last steps), so the steps between repeat without end"
        )
        self.node = node
        self.path = path
        self.state = state


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
