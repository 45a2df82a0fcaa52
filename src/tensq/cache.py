"""Result cache: one self-describing file per canonical input digest.

Keys hash the canonical JSON of the inputs (generators or presentation
text, mode, limits) together with a version: the CLI passes
``source_digest()``, so a report cached by other code is a miss.  Each
entry starts with a header line naming its key and the SHA-256 of the
body that follows.  Writes are atomic (write-then-rename); an entry
whose header or body digest does not match is ignored with a warning
and recomputed.  There is no global index, so the cache is crash-safe
by construction.

SHA-256 comes from CPython's built-in module (``_sha2`` on 3.12+,
``_sha256`` before), as ``random.py`` takes SHA-512: ``hashlib`` loads
OpenSSL's libcrypto, about 3.5 MB of resident memory, for the same
digest.  Only a build without the built-in hashes falls back to
``hashlib``.  The module is looked up once, at the first digest.

The package defers this module: ``import tensq`` registers it, and it
runs when a command that reads the cache starts, so a command that
never reads it (``--no-cache`` runs, ``verify``, ``engel``,
``identity-f``, ``catalog``) never compiles it.
"""

from __future__ import annotations

import functools
import os
import pathlib
import tempfile
import warnings

from .report import canonical_json

ENV_VAR = "TENSQ_CACHE_DIR"
_HEADER = "tensq-cache 2"


def cache_dir():
    override = os.environ.get(ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "tensq")


@functools.cache
def _sha256_constructor():
    # resolved once: a failed import is not cached by the import system,
    # so a per-digest lookup would search sys.path again each time
    try:
        from _sha2 import sha256            # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256      # CPython 3.10, 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def _sha256(data=b""):
    return _sha256_constructor()(data)


@functools.cache
def source_digest():
    """SHA-256 over the package's ``.py`` sources, read one file at a
    time, once per process."""
    digest = _sha256()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cache_key(payload, version):
    body = canonical_json({"payload": payload, "version": version})
    return _sha256(body.encode("utf-8")).hexdigest()


def _path_for(key):
    return os.path.join(cache_dir(), key + ".json")


def _header(key, body):
    digest = _sha256(body.encode("utf-8")).hexdigest()
    return f"{_HEADER} {key} {digest}"


def cache_store(key, report_json):
    """Write ``report_json`` under ``key``.  A write that fails (the
    directory cannot be made, or a directory sits at the entry's path)
    warns and stores nothing: the result it would have kept stands."""
    d = cache_dir()
    path = _path_for(key)
    blob = _header(key, report_json) + "\n" + report_json
    tmp = None
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError as exc:
        warnings.warn(f"could not write cache entry {path}: {exc}")
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def cache_load(key):
    """Cached report JSON for ``key``, or None (cold, corrupt or
    damaged)."""
    path = _path_for(key)
    try:
        # undecodable bytes become U+FFFD, so the digest check rejects them
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            blob = fh.read()
    except OSError:
        return None
    header, _, body = blob.partition("\n")
    if header != _header(key, body):
        warnings.warn(f"ignoring corrupt cache entry {path}")
        return None
    return body
