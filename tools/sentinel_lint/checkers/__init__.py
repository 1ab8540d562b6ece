"""Built-in checkers.  Importing this package registers every checker."""

from . import (  # noqa: F401
    sl001_rng,
    sl002_wallclock,
    sl003_endianness,
    sl004_magic_dims,
    sl005_layering,
    sl006_mutable_defaults,
    sl007_thread_shared,
    sl008_exception_contract,
    sl010_obs_names,
)
from .base import Checker, ProjectChecker

__all__ = ["Checker", "ProjectChecker"]
