"""Cluster-wide endpoint directory.

Legacy programs find each other through ``host:port`` endpoints written in
their configuration files (Apache's ``worker.properties`` lists Tomcat
hosts; Tomcat's datasource URL points at the C-JDBC controller...).  The
directory plays the role of the network stack: it resolves an endpoint to
the live server object listening on it.  A lookup of an endpoint nobody
listens on raises :class:`EndpointNotFound` — the simulated equivalent of a
TCP connection refusal, which is exactly what a mis-edited config file
produces on the real testbed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.legacy.server import LegacyServer


class EndpointNotFound(ConnectionError):
    """Nothing is listening on the requested host:port."""


class Directory:
    """Maps (host, port) endpoints to listening servers."""

    def __init__(self) -> None:
        self._endpoints: dict[tuple[str, int], "LegacyServer"] = {}
        #: ``find((host, port))``: the server listening there, or None —
        #: the endpoint dict's own ``get``, so ``port`` must be an int
        self.find = self._endpoints.get

    def register(self, host: str, port: int, server: "LegacyServer") -> None:
        key = (host, int(port))
        current = self._endpoints.get(key)
        if current is not None and current is not server:
            raise ValueError(
                f"endpoint {host}:{port} already taken by {current.name}"
            )
        self._endpoints[key] = server

    def unregister(self, host: str, port: int) -> None:
        self._endpoints.pop((host, int(port)), None)

    def lookup(self, host: str, port: int) -> "LegacyServer":
        """The server listening on ``host:port``; raises
        :class:`EndpointNotFound` if there is none (use :attr:`find` where
        an absent endpoint is not an error)."""
        try:
            return self._endpoints[(host, int(port))]
        except KeyError:
            raise EndpointNotFound(f"{host}:{port}") from None

    def endpoints(self) -> list[tuple[str, int, str]]:
        return sorted(
            (host, port, server.name)
            for (host, port), server in self._endpoints.items()
        )

    def __len__(self) -> int:
        return len(self._endpoints)
