"""Backend selection: one validator, one factory, every chase entry point.

Instances historically had exactly one implementation — the in-memory
:class:`repro.core.instance.Instance` — so "which storage backend" was
never a question callers could ask.  The disk-backed
:class:`repro.backends.sqlite.SQLiteInstance` makes it one, and this
module is the single place the question is answered:

* A backend is a name: one of :data:`BACKENDS`, or ``None`` for the
  :data:`ENV_VAR` environment default.  Everything that accepts a
  ``backend=`` keyword — :class:`repro.chase.engine.ChaseEngine`, the
  chase entry points, the deciders, the service layer — accepts exactly
  what :func:`backend_name` accepts.  There is nothing to configure: an
  sqlite instance always lives in a private temporary file it owns.

* :func:`make_instance` — the factory that turns a name into a live
  instance.  This is the supported construction path for *storage-backed*
  instances; building :class:`~repro.core.instance.Instance` directly
  still works everywhere but pins the caller to the memory backend.

The environment default (``CHASE_BACKEND=sqlite``) is how CI runs the
whole tier-1 suite against the disk backend without touching a single
call site; explicit ``backend=`` arguments always win over it.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from repro.core.atoms import Atom
from repro.core.instance import Instance

#: The recognised backend names, in preference-documentation order.
BACKENDS = ("memory", "sqlite")

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "CHASE_BACKEND"


def backend_name(backend=None) -> str:
    """The backend name that ``backend`` selects.

    ``None`` resolves the :data:`ENV_VAR` environment default (and falls
    back to ``"memory"``); a string must be one of :data:`BACKENDS`.
    Raises :class:`ValueError` on anything else.
    """
    if backend is None:
        backend = os.environ.get(ENV_VAR) or "memory"
    if not isinstance(backend, str) or backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (expected one of {', '.join(BACKENDS)})"
        )
    return backend


def make_instance(backend=None, atoms: Optional[Iterable[Atom]] = None) -> Instance:
    """Build an instance on the selected backend.

    The unified construction path the chase engines, the deciders, and the
    service layer all use.  ``backend`` is anything :func:`backend_name`
    accepts.

    * ``"memory"`` — a plain :class:`repro.core.instance.Instance`.
    * ``"sqlite"`` — a :class:`repro.backends.sqlite.SQLiteInstance` in a
      fresh private temporary file, removed by its ``close()``.
    """
    if backend_name(backend) == "memory":
        return Instance(atoms)
    from repro.backends.sqlite import SQLiteInstance

    return SQLiteInstance(atoms)
