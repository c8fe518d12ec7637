"""Proprietary configuration-file formats of the legacy layer.

The heterogeneity of these formats is the paper's core motivation: "very
complex administration interfaces and procedures associated with very
heterogeneous software" (§2).  We implement a faithful miniature of each
format with a parser and a renderer, so that wrappers *really* rewrite
config text and servers *really* parse it back:

* :class:`HttpdConf` — Apache ``httpd.conf`` directives;
* :class:`WorkerProperties` — mod_jk ``worker.properties`` (the exact file
  quoted in the paper's §5.1 scenario);
* :class:`ServerXml` — Tomcat ``server.xml`` (connector ports);
* :class:`MyCnf` — MySQL ``my.cnf`` INI sections;
* :class:`CjdbcXml` — C-JDBC virtual-database XML (backend list);
* :class:`PlbConf` — PLB's simple directive file.

All classes round-trip: ``parse(render(x)) == x``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional


class ConfigError(ValueError):
    """Malformed legacy configuration text."""


# ----------------------------------------------------------------------
# Apache httpd.conf
# ----------------------------------------------------------------------
class HttpdConf:
    """Apache-style directive file: one ``Directive value`` per line."""

    KNOWN_DIRECTIVES = (
        "Listen",
        "ServerName",
        "MaxClients",
        "DocumentRoot",
        "JkWorkersFile",
    )

    def __init__(
        self,
        listen: int = 80,
        server_name: str = "localhost",
        max_clients: int = 150,
        document_root: str = "/var/www",
        jk_workers_file: str = "/etc/apache/worker.properties",
    ) -> None:
        self.listen = listen
        self.server_name = server_name
        self.max_clients = max_clients
        self.document_root = document_root
        self.jk_workers_file = jk_workers_file

    def render(self) -> str:
        return (
            f"Listen {self.listen}\n"
            f"ServerName {self.server_name}\n"
            f"MaxClients {self.max_clients}\n"
            f"DocumentRoot {self.document_root}\n"
            f"JkWorkersFile {self.jk_workers_file}\n"
        )

    @classmethod
    def parse(cls, text: str) -> "HttpdConf":
        conf = cls()
        seen = set()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ConfigError(f"httpd.conf line {lineno}: {raw!r}")
            directive, value = parts
            if directive == "Listen":
                conf.listen = int(value)
            elif directive == "ServerName":
                conf.server_name = value
            elif directive == "MaxClients":
                conf.max_clients = int(value)
            elif directive == "DocumentRoot":
                conf.document_root = value
            elif directive == "JkWorkersFile":
                conf.jk_workers_file = value
            else:
                raise ConfigError(
                    f"httpd.conf line {lineno}: unknown directive {directive!r}"
                )
            seen.add(directive)
        return conf

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HttpdConf):
            return NotImplemented
        return self.render() == other.render()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HttpdConf(listen={self.listen}, server={self.server_name!r})"


# ----------------------------------------------------------------------
# mod_jk worker.properties
# ----------------------------------------------------------------------
class Worker:
    """One AJP13 worker entry (a Tomcat instance)."""

    __slots__ = ("name", "host", "port", "wtype", "lbfactor")

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        wtype: str = "ajp13",
        lbfactor: int = 100,
    ):
        self.name = name
        self.host = host
        self.port = port
        self.wtype = wtype
        self.lbfactor = lbfactor

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Worker):
            return NotImplemented
        return (self.name, self.host, self.port, self.wtype, self.lbfactor) == (
            other.name,
            other.host,
            other.port,
            other.wtype,
            other.lbfactor,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Worker({self.name!r}, {self.host}:{self.port})"


class WorkerProperties:
    """The mod_jk ``worker.properties`` file — the format the paper quotes.

    A load-balancer pseudo-worker named ``loadbalancer`` dispatches over the
    ``balanced_workers`` list.
    """

    def __init__(self, workers: Optional[list[Worker]] = None) -> None:
        self.workers: list[Worker] = list(workers or [])

    def worker(self, name: str) -> Worker:
        for w in self.workers:
            if w.name == name:
                return w
        raise KeyError(name)

    def render(self) -> str:
        lines: list[str] = []
        for w in self.workers:
            lines.append(f"worker.{w.name}.port={w.port}")
            lines.append(f"worker.{w.name}.host={w.host}")
            lines.append(f"worker.{w.name}.type={w.wtype}")
            lines.append(f"worker.{w.name}.lbfactor={w.lbfactor}")
        names = ", ".join(w.name for w in self.workers)
        lines.append(f"worker.list={names}{', ' if names else ''}loadbalancer")
        lines.append("worker.loadbalancer.type=lb")
        lines.append(f"worker.loadbalancer.balanced_workers={names}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "WorkerProperties":
        raw: dict[str, dict[str, str]] = {}
        balanced: list[str] = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"worker.properties line {lineno}: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            parts = key.split(".")
            if parts[:2] == ["worker", "list"]:
                continue
            if len(parts) != 3 or parts[0] != "worker":
                raise ConfigError(f"worker.properties line {lineno}: bad key {key!r}")
            _, name, prop = parts
            if name == "loadbalancer":
                if prop == "balanced_workers":
                    balanced = [v.strip() for v in value.split(",") if v.strip()]
                continue
            raw.setdefault(name, {})[prop] = value
        workers = []
        for name in balanced or list(raw):
            props = raw.get(name)
            if props is None:
                raise ConfigError(f"balanced worker {name!r} has no definition")
            try:
                workers.append(
                    Worker(
                        name,
                        host=props["host"],
                        port=int(props["port"]),
                        wtype=props.get("type", "ajp13"),
                        lbfactor=int(props.get("lbfactor", "100")),
                    )
                )
            except KeyError as missing:
                raise ConfigError(
                    f"worker {name!r} is missing property {missing}"
                ) from None
        return cls(workers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkerProperties):
            return NotImplemented
        return self.workers == other.workers


# ----------------------------------------------------------------------
# Tomcat server.xml
# ----------------------------------------------------------------------
class ServerXml:
    """Minimal Tomcat ``server.xml``: HTTP and AJP connector ports and the
    JDBC datasource URL the servlets use."""

    def __init__(
        self,
        http_port: int = 8080,
        ajp_port: int = 8009,
        datasource_url: str = "jdbc:cjdbc://localhost:25322/rubis",
        max_threads: int = 150,
    ) -> None:
        self.http_port = http_port
        self.ajp_port = ajp_port
        self.datasource_url = datasource_url
        self.max_threads = max_threads

    def render(self) -> str:
        return (
            "<Server>\n"
            f'  <Connector protocol="HTTP/1.1" port="{self.http_port}" '
            f'maxThreads="{self.max_threads}"/>\n'
            f'  <Connector protocol="AJP/1.3" port="{self.ajp_port}"/>\n'
            f'  <Resource name="jdbc/rubis" url="{self.datasource_url}"/>\n'
            "</Server>\n"
        )

    @classmethod
    def parse(cls, text: str) -> "ServerXml":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ConfigError(f"server.xml: {exc}") from exc
        conf = cls()
        for conn in root.findall("Connector"):
            protocol = conn.get("protocol", "")
            if protocol.startswith("HTTP"):
                conf.http_port = int(conn.get("port", conf.http_port))
                conf.max_threads = int(conn.get("maxThreads", conf.max_threads))
            elif protocol.startswith("AJP"):
                conf.ajp_port = int(conn.get("port", conf.ajp_port))
        resource = root.find("Resource")
        if resource is not None:
            conf.datasource_url = resource.get("url", conf.datasource_url)
        return conf

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServerXml):
            return NotImplemented
        return self.render() == other.render()


# ----------------------------------------------------------------------
# MySQL my.cnf
# ----------------------------------------------------------------------
class MyCnf:
    """INI-style ``my.cnf`` with a single ``[mysqld]`` section."""

    def __init__(
        self,
        port: int = 3306,
        datadir: str = "/var/lib/mysql",
        max_connections: int = 200,
    ) -> None:
        self.port = port
        self.datadir = datadir
        self.max_connections = max_connections

    def render(self) -> str:
        return (
            "[mysqld]\n"
            f"port={self.port}\n"
            f"datadir={self.datadir}\n"
            f"max_connections={self.max_connections}\n"
        )

    @classmethod
    def parse(cls, text: str) -> "MyCnf":
        conf = cls()
        section = None
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith(("#", ";")):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
                continue
            if section != "mysqld":
                continue
            if "=" not in line:
                raise ConfigError(f"my.cnf line {lineno}: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key == "port":
                conf.port = int(value)
            elif key == "datadir":
                conf.datadir = value
            elif key == "max_connections":
                conf.max_connections = int(value)
        return conf

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MyCnf):
            return NotImplemented
        return self.render() == other.render()


# ----------------------------------------------------------------------
# C-JDBC virtual database XML
# ----------------------------------------------------------------------
class CjdbcBackend:
    """One database backend declaration in the C-JDBC controller config."""

    __slots__ = ("name", "host", "port")

    def __init__(self, name: str, host: str, port: int):
        self.name = name
        self.host = host
        self.port = port

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CjdbcBackend):
            return NotImplemented
        return (self.name, self.host, self.port) == (other.name, other.host, other.port)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CjdbcBackend({self.name!r}, {self.host}:{self.port})"


class CjdbcXml:
    """C-JDBC controller configuration (virtual database + backends +
    load-balancer policy + recovery-log location)."""

    def __init__(
        self,
        vdb_name: str = "rubis",
        port: int = 25322,
        policy: str = "LeastPendingRequestsFirst",
        backends: Optional[list[CjdbcBackend]] = None,
        recovery_log: str = "/var/lib/cjdbc/recovery.db",
    ) -> None:
        self.vdb_name = vdb_name
        self.port = port
        self.policy = policy
        self.backends: list[CjdbcBackend] = list(backends or [])
        self.recovery_log = recovery_log

    def render(self) -> str:
        lines = [
            "<C-JDBC>",
            f'  <VirtualDatabase name="{self.vdb_name}" port="{self.port}">',
            f'    <RecoveryLog url="{self.recovery_log}"/>',
            f'    <RAIDb-1 loadBalancer="{self.policy}">',
        ]
        for b in self.backends:
            lines.append(
                f'      <DatabaseBackend name="{b.name}" host="{b.host}" '
                f'port="{b.port}"/>'
            )
        lines += ["    </RAIDb-1>", "  </VirtualDatabase>", "</C-JDBC>"]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "CjdbcXml":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ConfigError(f"cjdbc.xml: {exc}") from exc
        vdb = root.find("VirtualDatabase")
        if vdb is None:
            raise ConfigError("cjdbc.xml: missing <VirtualDatabase>")
        conf = cls(
            vdb_name=vdb.get("name", "rubis"),
            port=int(vdb.get("port", "25322")),
        )
        log = vdb.find("RecoveryLog")
        if log is not None:
            conf.recovery_log = log.get("url", conf.recovery_log)
        raidb = vdb.find("RAIDb-1")
        if raidb is not None:
            conf.policy = raidb.get("loadBalancer", conf.policy)
            for b in raidb.findall("DatabaseBackend"):
                name, host, port = b.get("name"), b.get("host"), b.get("port")
                if not (name and host and port):
                    raise ConfigError("cjdbc.xml: incomplete <DatabaseBackend>")
                conf.backends.append(CjdbcBackend(name, host, int(port)))
        return conf

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CjdbcXml):
            return NotImplemented
        return self.render() == other.render()


# ----------------------------------------------------------------------
# PLB configuration
# ----------------------------------------------------------------------
class PlbConf:
    """PLB's directive file: a listen port and ``server host:port`` lines."""

    def __init__(
        self,
        listen: int = 8888,
        servers: Optional[list[tuple[str, int]]] = None,
        policy: str = "roundrobin",
    ) -> None:
        self.listen = listen
        self.servers: list[tuple[str, int]] = list(servers or [])
        self.policy = policy

    def render(self) -> str:
        lines = [f"listen {self.listen}", f"policy {self.policy}"]
        lines += [f"server {host}:{port}" for host, port in self.servers]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "PlbConf":
        conf = cls(servers=[])
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ConfigError(f"plb.conf line {lineno}: {line!r}")
            keyword, value = parts
            if keyword == "listen":
                conf.listen = int(value)
            elif keyword == "policy":
                conf.policy = value
            elif keyword == "server":
                if ":" not in value:
                    raise ConfigError(f"plb.conf line {lineno}: bad server {value!r}")
                host, port = value.rsplit(":", 1)
                conf.servers.append((host, int(port)))
            else:
                raise ConfigError(f"plb.conf line {lineno}: unknown {keyword!r}")
        return conf

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlbConf):
            return NotImplemented
        return self.render() == other.render()
