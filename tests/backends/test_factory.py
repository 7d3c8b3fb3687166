"""The backend-selection API: ``backend_name`` and ``make_instance``.

A backend is a name (or None for the environment default): no path, no
options, no config object.
"""

import os

import pytest

from repro.backends import (
    BACKENDS,
    ENV_VAR,
    SQLiteInstance,
    backend_name,
    make_instance,
)
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Constant


def atom(p, *names):
    return Atom(p, [Constant(n) for n in names])


class TestBackendSpec:
    """What a ``backend=`` value may be: one of ``BACKENDS`` or None."""

    def test_default_is_memory(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert backend_name() == "memory"
        assert backend_name(None) == "memory"

    def test_parse_string(self):
        assert backend_name("sqlite") == "sqlite"

    def test_parse_dict(self):
        # A config object (a name plus a client-chosen path) is refused
        # whole.
        with pytest.raises(ValueError, match="unknown backend"):
            backend_name({"name": "sqlite", "path": "/tmp/x.sqlite"})
        with pytest.raises(ValueError, match="unknown backend"):
            backend_name({"name": "sqlite"})

    def test_parse_dict_backend_alias(self):
        with pytest.raises(ValueError, match="unknown backend"):
            backend_name({"backend": "sqlite"})

    def test_parse_passthrough(self):
        # A resolved name resolves to itself (the service passes its
        # default through the same validator).
        for name in BACKENDS:
            assert backend_name(backend_name(name)) == name

    def test_parse_env_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "sqlite")
        assert backend_name(None) == "sqlite"
        monkeypatch.setenv(ENV_VAR, "")
        assert backend_name(None) == "memory"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "sqlite")
        assert backend_name("memory") == "memory"

    def test_unknown_backend(self):
        for bad in ("lmdb", "", 7, ["sqlite"]):
            with pytest.raises(ValueError, match="unknown backend"):
                backend_name(bad)

    def test_memory_rejects_path(self):
        with pytest.raises(TypeError):
            make_instance("memory", path="/tmp/x.sqlite")
        with pytest.raises(ValueError, match="unknown backend"):
            backend_name({"name": "memory", "path": "/tmp/x.sqlite"})

    def test_unknown_option(self):
        # No backend takes options, sqlite pragmas included.
        for option in ("synchronous", "timeout", "bogus"):
            with pytest.raises(TypeError):
                make_instance("sqlite", **{option: 1})
            with pytest.raises(TypeError):
                SQLiteInstance([], **{option: 1})

    def test_backends_constant(self):
        assert set(BACKENDS) == {"memory", "sqlite"}


class TestMakeInstance:
    def test_memory_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        instance = make_instance()
        assert type(instance) is Instance

    def test_memory_with_atoms(self):
        instance = make_instance("memory", atoms=[atom("R", "a", "b")])
        assert len(instance) == 1

    def test_sqlite(self):
        instance = make_instance("sqlite", atoms=[atom("R", "a", "b")])
        try:
            assert isinstance(instance, SQLiteInstance)
            assert isinstance(instance, Instance)
            assert len(instance) == 1
            assert os.path.exists(instance.path)
        finally:
            instance.close()
        assert not os.path.exists(instance.path)

    def test_sqlite_explicit_path(self, tmp_path):
        # A caller cannot choose the file: an sqlite instance always lives
        # in a private temp file it creates, never at a given path.
        path = tmp_path / "chase.sqlite"
        with pytest.raises(TypeError):
            make_instance("sqlite", atoms=[atom("R", "a")], path=str(path))
        with pytest.raises(TypeError):
            SQLiteInstance([atom("R", "a")], path=str(path))
        assert not path.exists()
        instance = make_instance("sqlite", atoms=[atom("R", "a")])
        try:
            assert os.path.dirname(instance.path) != str(tmp_path)
            assert os.path.basename(instance.path).startswith("chase-")
        finally:
            instance.close()

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "sqlite")
        instance = make_instance(atoms=[])
        try:
            assert isinstance(instance, SQLiteInstance)
        finally:
            instance.close()

    def test_kwarg_validation(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_instance("lmdb")
        with pytest.raises(ValueError, match="unknown backend"):
            make_instance({"name": "sqlite"})
        with pytest.raises(TypeError):
            make_instance("memory", path="/tmp/x.sqlite")
        with pytest.raises(TypeError):
            make_instance("sqlite", synchronous="OFF")
