"""Exception types raised across the toolchain.

Validation findings (missing parameters, mutex violations, ...) are NOT
exceptions; they are collected into a ValidationReport by seqc.validator.
The classes here cover structural problems that make an input unusable.
"""


class SeqcError(Exception):
    """Base class for every error raised by this package."""


class XmlSyntaxError(SeqcError):
    """Input is not well-formed XML or does not match the expected document shape."""


class DuplicateIdentifierError(SeqcError):
    """A name that must be unique within its namespace appears twice."""


class UnknownTypeReferenceError(SeqcError):
    """A variable-type name used in a DSL does not resolve."""


class RecursiveCompositeTypeError(SeqcError):
    """A composite variable type contains itself, directly or transitively."""


class UnresolvedMutexReferenceError(SeqcError):
    """A mutual-exclusion entry names an action type that does not exist."""


class UnknownActionTypeError(SeqcError):
    """An action-type identifier does not resolve against the DSL."""


class UnknownResourceTypeError(SeqcError):
    """A resource declaration names a component type the DSL does not define."""


class UnknownVariableTypeError(SeqcError):
    """A variable declaration names a type the DSL does not define."""


class _Located(SeqcError):
    """An error that may name the template and line it comes from: both, as
    ` [id:line]` after the message, or neither."""

    def __init__(self, message, *, template_id=None, line=None):
        self.template_id = template_id
        self.line = line
        if template_id is not None and line is not None:
            message = f"{message} [{template_id}:{line}]"
        super().__init__(message)


class UnresolvedReferenceError(_Located):
    """A cross-reference does not resolve.

    Raised for dangling names in program documents (unknown resources,
    parameters, constraint endpoints) and for template data paths that
    cannot be resolved in strict mode.  Template failures carry the
    template id and source line.
    """


class UnknownActionError(SeqcError):
    """A graph query names an action instance the program does not contain."""


class SameActionError(SeqcError):
    """A pairwise query was called with the same action on both sides."""


class CyclicGraphError(SeqcError):
    """The precedence graph contains a cycle (a self-loop is one); carries its members."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        shown = " -> ".join(self.cycle + self.cycle[:1]) if self.cycle else "?"
        super().__init__(f"precedence graph contains a cycle: {shown}")


class NonPositiveDurationError(SeqcError):
    """A duration is not a positive integer number of ticks."""


class InvalidProgramError(SeqcError):
    """An operation that requires a valid program was given one with errors."""

    def __init__(self, report):
        self.report = report
        errors = [f for f in report.findings if f.severity.value == "error"]
        super().__init__(f"program has {len(errors)} validation error(s)")


class MissingTemplateFileError(SeqcError):
    """A generator configuration references a template file that does not exist."""


class OutputExistsError(SeqcError):
    """A generated output file already exists and overwriting was not requested."""


class TemplateError(_Located):
    """Base for template parse and render failures; knows its template id and line."""


class UnclosedBlockError(TemplateError):
    """A #foreach or #if block is not terminated by #end (or #end/#else is stray)."""


class UnknownDirectiveError(TemplateError):
    """A '#' directive name is not part of the template language."""


class MalformedReferenceError(TemplateError):
    """A '$' reference or directive argument list cannot be parsed."""


class UnknownTemplateIdError(TemplateError):
    """#insert names a template id that the engine's templates do not contain."""


class NonIterableInForeachError(TemplateError):
    """#foreach was given a value that is not a sequence."""

