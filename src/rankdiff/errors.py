"""Exception hierarchy shared across the pipeline.

Every error carries the name of the subsystem that raised it so the CLI
can emit module-tagged diagnostics.
"""

import json
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


def load_json(path: str | Path, error: type[PipelineError], what: str = "") -> object:
    """The UTF-8 JSON document at ``path``. Every way the file cannot be read
    or parsed raises ``error``; ``what`` names the file in the message of an
    open that fails, as in ``cannot open config <path>``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise error(f"cannot open {what}{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise error(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply to parse") from None
