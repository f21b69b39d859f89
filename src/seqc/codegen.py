"""Code generation: bind a program to templates and emit target sources.

A generator configuration (XML) maps action types and component types
to template files and lists one or more main templates, each with an
output-name pattern.  Rendering exposes the program through small
read-only views so templates address model data with accessor paths
like ``$Action.getParameters()`` without touching model internals.

Scope roots available to templates:

    Program            name, actions (topological), resources, variables
    Action             name, type, resource, parameters, returnVariable
    Parameter          name, type, variable
    Variable           name, type
    ResourceComponent  name, type, actions (this resource's, topological)

Main templates are rendered with ``Program`` bound; per-action and
per-component fragments are pulled in with ``#insert``, which binds the
inserted node under the root name listed above.
"""

import xml.etree.ElementTree as ET
from collections.abc import Mapping, Sequence
from pathlib import Path

from . import model
from .dsl import RobotClassDsl, lookup_action
from .errors import (
    DuplicateIdentifierError,
    MissingTemplateFileError,
    OutputExistsError,
    SeqcError,
    XmlSyntaxError,
)
from .model import ActionInstance, Program, Value, _set
from .templating import Template, TemplateEngine, parse_template
from .validator import _refuse_invalid
from .xmlio import parse_root, require_attr


class VariableView(Value):
    """A global variable as templates see it."""

    _root = "Variable"
    name: str
    type: str

    def __init__(self, name: str, type: str):
        _set(self, "name", name)
        _set(self, "type", type)


class ParameterView(Value):
    """One declared parameter of an action and the variable bound to it, if any."""

    _root = "Parameter"
    name: str
    type: str
    variable: VariableView | None

    def __init__(self, name: str, type: str, variable: VariableView | None):
        _set(self, "name", name)
        _set(self, "type", type)
        _set(self, "variable", variable)


class ActionView(Value):
    """An action as templates see it."""

    _root = "Action"
    name: str
    type: str
    resource: str
    parameters: tuple[ParameterView, ...]
    returnVariable: VariableView | None

    def __init__(self, name: str, type: str, resource: str,
                 parameters: tuple[ParameterView, ...], returnVariable: VariableView | None):
        _set(self, "name", name)
        _set(self, "type", type)
        _set(self, "resource", resource)
        _set(self, "parameters", parameters)
        _set(self, "returnVariable", returnVariable)


class ResourceComponentView(Value):
    """A resource instance and its actions, in topological order."""

    _root = "ResourceComponent"
    name: str
    type: str
    actions: tuple[ActionView, ...]

    def __init__(self, name: str, type: str, actions: tuple[ActionView, ...]):
        _set(self, "name", name)
        _set(self, "type", type)
        _set(self, "actions", actions)


class ProgramView(Value):
    """The program as templates see it."""

    _root = "Program"
    name: str
    actions: tuple[ActionView, ...]
    resources: tuple[ResourceComponentView, ...]
    variables: tuple[VariableView, ...]

    def __init__(self, name: str, actions: tuple[ActionView, ...],
                 resources: tuple[ResourceComponentView, ...], variables: tuple[VariableView, ...]):
        _set(self, "name", name)
        _set(self, "actions", actions)
        _set(self, "resources", resources)
        _set(self, "variables", variables)


def action_view(action: ActionInstance, program: Program,
                dsl: RobotClassDsl) -> ActionView:
    action_type = lookup_action(dsl, action.action_type)
    bound = {arg.param: arg for arg in action.args}
    parameters = []
    for declared in action_type.parameters:
        arg = bound.get(declared.name)
        variable = None
        if arg is not None and arg.variable is not None:
            variable = _variable_view(program, arg.variable)
        parameters.append(ParameterView(declared.name, declared.type_name, variable))
    return_variable = None
    if action.return_to is not None:
        return_variable = _variable_view(program, action.return_to)
    return ActionView(action.name, action.action_type, action.resource,
                      tuple(parameters), return_variable)


def _variable_view(program: Program, name: str) -> VariableView:
    declared = program.variable(name)
    if declared is None:
        # Generation runs on validated programs, but views stay total so
        # lenient rendering of a broken program still produces output.
        return VariableView(name, "")
    return VariableView(declared.name, declared.type_name)


def program_view(program: Program, dsl: RobotClassDsl) -> ProgramView:
    order = model.topological_order(program)
    actions = tuple(action_view(program.action(name), program, dsl)
                    for name in order)
    by_resource: dict[str, list[ActionView]] = {}
    for view in actions:
        by_resource.setdefault(view.resource, []).append(view)
    resources = tuple(
        ResourceComponentView(res.name, res.component_type,
                              tuple(by_resource.get(res.name, ())))
        for res in program.resources)
    variables = tuple(VariableView(var.name, var.type_name)
                      for var in program.variables)
    return ProgramView(program.name, actions, resources, variables)


class GeneratorConfig(Value):
    """The parsed templates of a generator configuration."""

    templates: Mapping[str, Template]  # #insert ids: action and component types
    mains: tuple[tuple[Template, Template], ...]  # (template, output pattern)

    def __init__(self, templates: Mapping[str, Template],
                 mains: tuple[tuple[Template, Template], ...]):
        _set(self, "templates", templates)
        _set(self, "mains", mains)


def load_generator_config(text: str, *, base_dir: str | Path = ".",
                          search_path: Sequence[str | Path] = ()) -> GeneratorConfig:
    """Parse generator XML and load every referenced template file.

    Relative file names resolve against base_dir first, then against
    each entry of search_path in order.  A template id mapped for both
    an action type and a component type is a DuplicateIdentifierError.
    """
    root = parse_root(text, "Generator")
    action_templates: dict[str, Template] = {}
    component_templates: dict[str, Template] = {}
    mains: list[tuple[Template, Template]] = []
    for child in root:
        if child.tag == "ActionTemplate":
            key = require_attr(child, "actionType")
            _add_unique(action_templates, key, _load_template(
                child, key, base_dir, search_path), "action type")
        elif child.tag == "ComponentTemplate":
            key = require_attr(child, "componentType")
            _add_unique(component_templates, key, _load_template(
                child, key, base_dir, search_path), "component type")
        elif child.tag == "Main":
            file_name = require_attr(child, "file")
            template = _load_template(child, file_name, base_dir, search_path)
            pattern = parse_template(require_attr(child, "output"),
                                     f"{file_name}#output")
            mains.append((template, pattern))
        else:
            raise XmlSyntaxError(
                f"unexpected element <{child.tag}> in <Generator>")
    for key, template in component_templates.items():
        if key in action_templates:
            raise DuplicateIdentifierError(
                f"template id {key!r} is used for both an action type and"
                " a component type")
        action_templates[key] = template
    return GeneratorConfig(action_templates, tuple(mains))


def _read_utf8(path: Path, prefix: str = "") -> str:
    """The text of `path`; bytes that are not UTF-8 are a SeqcError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SeqcError(f"{prefix}not UTF-8 text: {exc}") from exc


def _add_unique(mapping: dict, key: str, template: Template, kind: str):
    if key in mapping:
        raise DuplicateIdentifierError(f"{kind} {key!r} is mapped to two templates")
    mapping[key] = template


def _load_template(elem: ET.Element, template_id: str, base_dir,
                   search_path) -> Template:
    file_name = require_attr(elem, "file")
    path = _resolve_file(file_name, base_dir, search_path)
    return parse_template(_read_utf8(path, f"{path}: "), template_id)


def _resolve_file(file_name: str, base_dir, search_path) -> Path:
    candidate = Path(file_name)
    if candidate.is_absolute():
        if candidate.is_file():
            return candidate
        raise MissingTemplateFileError(f"template file not found: {file_name}")
    tried = []
    for root in (base_dir, *search_path):
        path = Path(root) / candidate
        if path.is_file():
            return path
        tried.append(str(path))
    raise MissingTemplateFileError(
        f"template file {file_name!r} not found (tried: {', '.join(tried)})")


class GenerationResult(Value):
    """The rendered output files, and the warnings of a lenient render."""

    files: Mapping[str, str]
    warnings: tuple[str, ...] = ()

    def __init__(self, files: Mapping[str, str], warnings: tuple[str, ...] = ()):
        _set(self, "files", files)
        _set(self, "warnings", warnings)


def generate(program: Program, dsl: RobotClassDsl, config: GeneratorConfig,
             *, strict: bool = True) -> GenerationResult:
    """Render every main template; returns output-file name → text.

    A program with an Error finding raises InvalidProgramError with
    `validate`'s report.  In strict mode an unresolvable template reference
    aborts generation; otherwise it becomes empty output plus a warning.
    """
    _refuse_invalid(program, dsl)
    engine = TemplateEngine(config.templates, strict=strict)
    scope = {"Program": program_view(program, dsl)}
    files: dict[str, str] = {}
    for template, pattern in config.mains:
        file_name = engine.render_template(pattern, scope)
        if not file_name or "\n" in file_name:
            raise SeqcError(
                f"output pattern {pattern.id!r} produced an"
                f" unusable file name: {file_name!r}")
        if file_name in files:
            raise DuplicateIdentifierError(
                f"two main templates produce the same output file {file_name!r}")
        files[file_name] = engine.render_template(template, scope)
    return GenerationResult(files, tuple(engine.warnings))


def write_outputs(result: GenerationResult, out_dir: str | Path, *,
                  force: bool = False) -> list[Path]:
    """Write generated files under out_dir (UTF-8, LF); returns the paths.

    Refused before anything is written, so a clash never leaves a
    half-written set behind: a name holding a NUL byte, two names that
    resolve to one path, an output that is an existing directory or whose
    directory is another output or an existing file, and existing files
    unless force is set.  A write the file system refuses (an OSError)
    removes the files and directories this call created, then re-raises;
    files it overwrote under force cannot be restored.
    """
    out_dir = Path(out_dir).resolve()
    planned: dict[Path, str] = {}
    for file_name, text in result.files.items():
        if "\0" in file_name:
            raise SeqcError(f"output file {file_name!r} holds a NUL byte")
        path = (out_dir / file_name).resolve()
        if out_dir not in path.parents:
            raise SeqcError(f"output file {file_name!r} escapes the output directory")
        if path in planned:
            raise DuplicateIdentifierError(
                f"two main templates produce the same output file {file_name!r}")
        if path.is_dir():
            raise SeqcError(f"output file {file_name!r} is an existing directory")
        planned[path] = text
    for path in planned:
        for parent in path.parents[:len(path.parents) - len(out_dir.parents) - 1]:
            if parent in planned or parent.is_file():
                raise SeqcError(f"output file {str(path)!r} needs {str(parent)!r} to be a directory")
    existing = [path for path in planned if path.exists()]
    if existing and not force:
        raise OutputExistsError(
            f"refusing to overwrite existing file(s): {', '.join(map(str, existing))}"
            " (use force to allow)")
    created: list[Path] = []  # new directories and files, in the order made
    try:
        for path, text in planned.items():
            missing = []
            for parent in path.parents:
                if parent.exists():
                    break
                missing.append(parent)
            for parent in reversed(missing):
                parent.mkdir()
                created.append(parent)
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                if path not in existing:
                    created.append(path)
                handle.write(text)
    except OSError:
        for path in reversed(created):
            if path in planned:
                path.unlink()
            else:
                path.rmdir()
        raise
    return list(planned)
