"""Exception hierarchy shared across the pipeline, the guard that turns a
failed write into one of them, ``write_text``, the one writer of every file,
and the one reader and typed field table of the JSON documents a user writes.
Every error names the subsystem that raised it, for the CLI's diagnostics.
"""

import json
import os
from collections.abc import Iterable
from contextlib import contextmanager
from pathlib import Path


class PipelineError(Exception):
    """Base class for all errors raised by this package."""

    module = "rankdiff"


class IngestError(PipelineError):
    module = "ingest"


class MetricsError(PipelineError):
    module = "metrics"


class ClassifyError(PipelineError):
    module = "classify"


class RenderError(PipelineError):
    module = "render"


class SynthError(PipelineError):
    module = "synth"


class ConfigError(PipelineError):
    module = "cli"


@contextmanager
def writing(target: str | Path, error: type[PipelineError]):
    """Ends a failure to write ``target``, or a file under it, in ``error``
    naming the path, not in a traceback."""
    try:
        yield
    except OSError as exc:
        raise error(f"cannot write {exc.filename or target}: {exc.strerror or exc}") from exc


WRITE_BYTES = 1 << 16  # text gathered for each write


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Create or truncate ``path`` and write ``chunks`` as UTF-8 with no newline
    translation, in writes of 64 KiB: chunks are gathered until they hold at
    least ``WRITE_BYTES`` characters (bytes, for ASCII text), so at most that
    much plus one chunk is held and a file built in pieces is never held whole.
    It writes through the bare file descriptor: ``run`` writes a file per
    municipality, and a buffered text file costs more to set up than a write."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        held, size = [], 0
        for chunk in chunks:
            held.append(chunk)
            size += len(chunk)
            if size >= WRITE_BYTES:
                _write_all(fd, "".join(held))
                held, size = [], 0
        _write_all(fd, "".join(held))
    finally:
        os.close(fd)


def _write_all(fd: int, text: str) -> None:
    data = memoryview(text.encode("utf-8"))
    while data:  # a write may take fewer bytes than it is given
        data = data[os.write(fd, data):]


def load_json(path: str | Path, error: type[PipelineError], what: str = "") -> object:
    """The UTF-8 JSON document at ``path``, after a byte-order mark if it has
    one (RFC 8259 section 8.1 lets a parser ignore it). Every way the file
    cannot be read or parsed raises ``error``; ``what`` names the file in the
    message of an open that fails, as in ``cannot open config <path>``."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return json.load(handle)
    except OSError as exc:
        raise error(f"cannot open {what}{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise error(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply to parse") from None


def number(value: object) -> float:
    """A JSON int or float, or "inf" or "-inf", as JSON has no infinity."""
    if value in ("inf", "-inf") or isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(str(value))  # via text, an int past the float range reads as inf
    raise ValueError(f"must be a number, got {json.dumps(value)}")


def decimal(value: object) -> float:
    """A number written as text, as a command line gives it; "inf" reads as infinity."""
    try:
        return float(text(value))
    except ValueError:
        raise ValueError(f"must be a number, got {json.dumps(value)}") from None


def integer(value: object) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"must be an integer, got {json.dumps(value)}")


def text(value: object) -> str:
    if isinstance(value, str) and value and "\0" not in value:  # no file name holds a NUL
        value.encode()  # raises ValueError on a lone surrogate, which JSON can write
        return value
    raise ValueError(f"must be a non-empty string with no NUL, got {json.dumps(value)}")


def one_of(values: dict, fold=lambda key: key):
    """The kind of a string that ``fold`` maps to a key of ``values``, read as
    that key's value."""
    def read(value: object):
        key = fold(text(value))
        if key not in values:
            raise ValueError(f"must be one of {', '.join(values)}, got {json.dumps(value)}")
        return values[key]
    return read


def array(kind):
    """The kind of a JSON array of ``kind`` items, read as a tuple."""
    def read(value: object) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"must be an array, got {json.dumps(value)}")
        return tuple(map(kind, value))
    return read


def read_fields(doc: object, kinds: dict, error: type[PipelineError], where: str,
                required: tuple[str, ...] = ()) -> dict:
    """The JSON object ``doc`` with each key read by its kind; a dict of kinds
    reads a nested object. A key not in ``kinds``, a ValueError from a kind or a
    missing ``required`` key raises ``error``, naming ``where`` and the key."""
    if not isinstance(doc, dict):
        raise error(f"{where}: must be a JSON object")
    fields = {}
    for key, value in doc.items():
        if key not in kinds:
            raise error(f"{where}: unknown key {key!r}, expected one of {', '.join(kinds)}")
        if isinstance(kinds[key], dict):
            fields[key] = read_fields(value, kinds[key], error, f"{where}: bad {key} config")
            continue
        try:
            fields[key] = kinds[key](value)
        except ValueError as exc:
            raise error(f"{where}: {key} {exc}") from None
    for key in required:
        if key not in fields:
            raise error(f"{where}: missing required key {key!r}")
    return fields
