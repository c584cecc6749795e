"""The package namespace: ``import ncats`` loads no submodule, each command
loads only the modules it runs, and every public name resolves as before."""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ncats
from ncats import document_from_structure, serialize

from util import z2_structure

# the public names of the package: 87 exports and the six library submodules
PUBLIC_NAMES = 93


def loaded_modules(code):
    """The ``ncats`` modules a fresh interpreter holds after running ``code``."""
    probe = "import sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'ncats'))"
    env = dict(os.environ, PYTHONPATH=str(Path(ncats.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{probe}"], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.splitlines()[-1].split()


def test_import_loads_no_submodule():
    assert loaded_modules("import ncats") == ["ncats"]


def test_each_command_loads_only_what_it_runs(tmp_path):
    _, S = z2_structure()
    path = tmp_path / "z2.json"
    path.write_bytes(serialize(document_from_structure(S)))
    base = ["ncats", "ncats.cli", "ncats.graphs", "ncats.io", "ncats.structures"]
    for argv, extra in ((["check"], []),
                        (["enumerate"], ["ncats.enumeration"])):
        code = f"import ncats.cli; ncats.cli.main({argv + [str(path)]!r})"
        assert loaded_modules(code) == sorted(base + extra), argv


def test_every_public_name_resolves_to_its_home_object():
    assert len(ncats.__all__) == PUBLIC_NAMES
    for name in ncats.__all__:
        obj = getattr(ncats, name)
        if isinstance(obj, ModuleType):
            assert obj is sys.modules[f"ncats.{name}"]
        else:
            assert obj.__module__.startswith("ncats."), name
            assert obj is getattr(sys.modules[obj.__module__], name), name
    assert ncats.cli is sys.modules["ncats.cli"]
    assert set(ncats.__all__) <= set(dir(ncats))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from ncats import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ncats.__all__)


def test_unknown_name_is_an_attribute_error():
    # FAIL is a name of ncats.structures that the package does not export
    for name in ("no_such_name", "FAIL"):
        with pytest.raises(AttributeError, match=name):
            getattr(ncats, name)
    with pytest.raises(ImportError):
        exec("from ncats import no_such_name", {})
