"""Exception types shared across the pipeline layers."""


class BlogwatchError(Exception):
    """Base class for all package-specific errors."""


class MalformedFeed(BlogwatchError):
    """A changes document or an RSS 2.0 feed that cannot be decoded or
    parsed, or is not the document it should be."""


class FetchFailed(BlogwatchError):
    """Network failure, timeout, HTTP status >= 400, or a body whose
    declared or actual size passed the byte cap. ``status`` is the
    response's HTTP status, or None when no response arrived."""

    def __init__(self, url, reason, status=None):
        super().__init__(f"{url}: {reason}")
        self.url = url
        self.status = status


class MediaSkipped(BlogwatchError):
    """Header probe classified the target as photo/audio/video content."""

    def __init__(self, url, content_type):
        super().__init__(f"{url}: media content-type {content_type}")
        self.content_type = content_type


class ConfigError(BlogwatchError):
    """A setting or input file is missing, unreadable or invalid: the run
    configuration, a world spec, a list, corpus or fixture file, a report
    or a checkpoint. Found before any network activity; the message names
    the file, and its line where there is one. ``blogwatch`` exits 1."""
