"""Exception types shared across the pipeline: one for each way a caller
handles a failure. The CLI exits 2 on a ``ResumableRunError`` and 1 on any
other ``TreeGenError``."""


class TreeGenError(Exception):
    """Base class for all treegen errors."""


class ConfigError(TreeGenError):
    """Input the program cannot use: a bad config, a missing, incompatible or
    corrupted checkpoint, an unreadable corpus file, a tree in the wrong mode
    (SFT vs PT) for the operation, or a tree with expansions still pending."""


class BackendError(TreeGenError):
    """A generation or embedding call failed; ``attempts`` counts the tries."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class ResumableRunError(TreeGenError):
    """Run aborted mid-way; the checkpoint on disk is valid and can be resumed."""
