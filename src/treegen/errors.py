"""Exception types shared across the pipeline."""


class TreeGenError(Exception):
    """Base class for all treegen errors."""


class ConfigError(TreeGenError):
    """Rejected input: bad config JSON, unknown keys, or hard invariant violations."""


class ModeError(TreeGenError):
    """Operation invoked for the wrong generation mode (SFT vs PT)."""


class IncompleteTreeError(TreeGenError):
    """Tree still has pending expansions and the caller did not ask for permissive handling."""


class BackendError(TreeGenError):
    """A generation or embedding call failed."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class StatusError(BackendError):
    """Non-2xx HTTP response; carries the status code and response body."""

    def __init__(self, status: int, body: str, attempts: int = 1):
        super().__init__(f"HTTP {status}: {body[:500]}", attempts=attempts)
        self.status = status
        self.body = body


class CheckpointError(TreeGenError):
    """Checkpoint store missing, incompatible, or corrupted beyond recovery."""


class ResumableRunError(TreeGenError):
    """Run aborted mid-way; the checkpoint on disk is valid and can be resumed."""
