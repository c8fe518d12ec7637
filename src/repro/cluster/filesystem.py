"""Per-node simulated filesystem.

The paper's central claim is that wrappers hide *proprietary configuration
files* (``httpd.conf``, ``worker.properties``...) behind a uniform component
interface.  To exercise that claim for real, every simulated node carries a
tiny filesystem; wrappers write genuine config-file text into it and legacy
servers parse their configuration back *only* from these files on start.
"""

from __future__ import annotations

from typing import Iterator


class FileNotFound(KeyError):
    """Raised when reading or deleting a path that does not exist."""


def _normalize(path: str) -> str:
    if not path or not path.startswith("/"):
        raise ValueError(f"paths must be absolute, got {path!r}")
    parts = [p for p in path.split("/") if p]
    return "/" + "/".join(parts)


class NodeFilesystem:
    """A flat path → text mapping."""

    def __init__(self) -> None:
        self._files: dict[str, str] = {}

    def write(self, path: str, content: str) -> None:
        """Create or overwrite the file at ``path``."""
        self._files[_normalize(path)] = content

    def read(self, path: str) -> str:
        """Return the content of ``path``; raise :class:`FileNotFound`."""
        path = _normalize(path)
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    def exists(self, path: str) -> bool:
        return _normalize(path) in self._files

    def delete(self, path: str) -> None:
        path = _normalize(path)
        try:
            del self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    def __len__(self) -> int:
        return len(self._files)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._files))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NodeFilesystem({len(self._files)} files)"
