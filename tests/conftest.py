import time

import pytest

from tensq import build_nu, get_group, get_presentation, tensor_module


class NuFactory:
    """Session-wide memo for nu-constructions, with build timings.

    Enumerations are deterministic, so sharing them across test modules
    only saves time; the first touch of each (group, mode) pays the
    real construction cost and records it.
    """

    def __init__(self):
        self._cache = {}
        self.durations = {}

    def __call__(self, name, mode="symbol"):
        key = (name, mode)
        if key not in self._cache:
            group = get_group(name)
            pres = get_presentation(name) if mode == "gens" else None
            start = time.monotonic()
            nu = build_nu(group, pres, mode)
            self.durations[key] = time.monotonic() - start
            self._cache[key] = nu
        return self._cache[key]


@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    """The result cache of every test run: a directory of the session's
    own, never ``~/.cache/tensq``.  A test that needs a cold cache sets
    TENSQ_CACHE_DIR itself."""
    with pytest.MonkeyPatch.context() as patch:
        path = tmp_path_factory.mktemp("cache")
        patch.setenv("TENSQ_CACHE_DIR", str(path))
        yield path


@pytest.fixture(scope="session")
def nu_of():
    return NuFactory()


@pytest.fixture(scope="session")
def module_of():
    """Session-wide memo for crossed modules of G (x) G, by group name."""
    cache = {}

    def build(name):
        if name not in cache:
            cache[name] = tensor_module(get_group(name))
        return cache[name]
    return build
