"""Instance storage backends behind one selection API.

A backend is a name: ``"memory"``, ``"sqlite"``, or None for the
``CHASE_BACKEND`` environment default.  ``make_instance(backend, atoms)``
is the unified construction path; every chase entry point, the deciders,
and the service layer accept the same ``backend=`` value and resolve it
here.  See ``docs/BACKENDS.md`` for the schema layout, the pragmas, and
when to pick which backend.
"""

from repro.backends.spec import BACKENDS, ENV_VAR, backend_name, make_instance
from repro.backends.sqlite import SQLiteInstance

__all__ = [
    "BACKENDS",
    "ENV_VAR",
    "SQLiteInstance",
    "backend_name",
    "make_instance",
]
