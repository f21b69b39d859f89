"""Toolchain for concurrent robot action-sequence programs.

A robot class is described by an XML DSL (resource components, action
types, variable types, mutual-exclusion pairs).  Programs are
dependency graphs of action instances wired to resources and global
variables.  The package validates programs statically, simulates their
deterministic execution, and turns them into target source code through
a small template engine.
"""

__version__ = "0.1.0"

from .dsl import RobotClassDsl, load_dsl, save_dsl
from .errors import SeqcError
from .model import (
    ActionInstance,
    ArgBinding,
    DurationMap,
    Program,
    ResourceInstance,
    VariableDecl,
    critical_path_length,
    potentially_parallel,
    topological_order,
)
from .program_io import export_dot, load_program, parse_program, save_program
from .simulator import ExecutionTrace, simulate, verify_trace
from .validator import ValidationReport, validate

__all__ = [
    "ActionInstance",
    "ArgBinding",
    "DurationMap",
    "ExecutionTrace",
    "Program",
    "ResourceInstance",
    "RobotClassDsl",
    "SeqcError",
    "ValidationReport",
    "VariableDecl",
    "__version__",
    "critical_path_length",
    "export_dot",
    "load_dsl",
    "load_program",
    "parse_program",
    "potentially_parallel",
    "save_dsl",
    "save_program",
    "simulate",
    "topological_order",
    "validate",
    "verify_trace",
]
