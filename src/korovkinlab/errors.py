"""Exception types shared across the package."""


class InvalidFunctionError(ValueError):
    """A function produced a non-finite or wrongly-typed value on its grid."""


class ResourceLimitError(RuntimeError):
    """A requested grid or computation exceeds the configured size cap."""


class SolverError(RuntimeError):
    """The LP backend failed or returned an unusable status."""


class ConfigError(ValueError):
    """A run configuration is malformed or references unknown objects."""


class DependencyError(ImportError):
    """An installed dependency lacks a private part the package loads."""
