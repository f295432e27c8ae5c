"""Provider I/O shared by every provider: one HTTP call, one retry loop, one line-JSON reader.

``post_json`` sends its request with the standard library's
``urllib.request``; karpa has no runtime dependency. Proxies come
from ``http_proxy``, ``https_proxy`` and ``no_proxy``; HTTPS is verified
against the system store (``SSL_CERT_FILE`` and ``SSL_CERT_DIR`` are
honoured). Each call opens a fresh connection. Redirects are not
followed: a 3xx status is a ``DataError`` like any other refused request,
so the bearer token is never sent to a host the endpoint did not name.
``check_endpoint`` admits only an ``http://`` or ``https://`` URL with a
host; each HTTP provider checks its endpoint when it is built.

An HTTP provider failure takes one of three types, so that only what can
succeed on a retry is retried:

* no connection (``OSError``, which covers ``URLError``, a refused
  connection and a timeout), a reply cut short (``http.client.HTTPException``),
  a 5xx status or a 429 is ``TransportError``, which ``with_retries``
  retries. A 429 or 503 whose ``Retry-After`` header is a number of
  seconds carries it, and the retry waits that long, up to 30 s, unless
  the backoff is longer; a date or any other value is ignored;
* any other non-200 status is ``DataError``: the request itself was refused;
* a 200 whose body is unusable is ``ProviderError``. ``post_json`` raises
  it for a body that is not JSON, each provider for a field it needs that
  is missing.

A request body that cannot be encoded as JSON (a non-finite number, say)
is a ``ContractError``, raised before any connection and never retried.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Callable, Iterator, TypeVar
from urllib.parse import urlsplit

from .errors import ConfigError, ContractError, DataError, ParseError, ProviderError, TransportError

T = TypeVar("T")

ATTEMPTS = 3
FIRST_DELAY = 0.25  # seconds; doubled after each failed attempt
MAX_RETRY_AFTER = 30.0  # seconds; the longest wait a Retry-After header gets


def check_endpoint(key: str, endpoint: str) -> None:
    """A ``ConfigError`` naming ``key`` unless ``endpoint`` is an http:// or https:// URL with a host."""
    parts = urlsplit(endpoint)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"{key} must be an http:// or https:// URL, got {endpoint!r}")


@functools.cache
def _opener():
    """``urllib``'s default opener, except that it follows no redirect.

    Built once, like the one ``urlopen`` keeps, so proxies are read from the
    environment at the first request.
    """
    import urllib.request

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None  # the 3xx reaches post_json as an HTTPError

    return urllib.request.build_opener(NoRedirect)


def _retry_after(value: str | None) -> float | None:
    """The delay-seconds of a ``Retry-After`` header value, or ``None`` for any other value."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


def post_json(endpoint: str, body: dict, api_key: str | None, timeout: float, service: str):
    """POST ``body`` as JSON, with ``api_key`` as a bearer token if given; the decoded reply.

    ``service`` names the provider in error messages.
    """
    import http.client
    import urllib.error
    import urllib.request

    try:
        data = json.dumps(body, allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ContractError(f"{service} request body is not JSON: {exc}") from None
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(endpoint, data=data, headers=headers, method="POST")
    retry_after = None
    try:
        with _opener().open(request, timeout=timeout) as resp:
            status, payload = resp.status, resp.read()
    except urllib.error.HTTPError as exc:  # before OSError, which it subclasses
        status = exc.code
        if status in (429, 503):
            retry_after = _retry_after(exc.headers.get("Retry-After"))
        try:
            payload = exc.read()
        except (OSError, http.client.HTTPException) as read_exc:
            raise TransportError(
                f"{service} service returned {status}, body unreadable: {read_exc}", retry_after=retry_after
            ) from None
        finally:
            exc.close()
    except (OSError, http.client.HTTPException) as exc:
        raise TransportError(f"{service} request failed: {exc}") from exc
    if status >= 500 or status == 429:
        raise TransportError(f"{service} service returned {status}", retry_after=retry_after)
    if status != 200:
        text = payload.decode("utf-8", errors="replace")
        raise DataError(f"{service} service returned {status}: {text[:200]}")
    try:
        return json.loads(payload)
    except ValueError:
        text = payload.decode("utf-8", errors="replace")
        raise ProviderError(f"{service} service returned a body that is not JSON: {text[:200]!r}") from None


def with_retries(call: Callable[[], T], sleep: Callable[[float], None]) -> T:
    """``call()``, retried on ``TransportError``: 3 attempts, sleeping 0.25 s, then 0.5 s.

    An error that carries a ``Retry-After`` delay sleeps that delay instead,
    capped at ``MAX_RETRY_AFTER``, when it is the longer.
    """
    delay = FIRST_DELAY
    for _ in range(ATTEMPTS - 1):
        try:
            return call()
        except TransportError as exc:
            wait = delay
            if exc.retry_after is not None:
                wait = max(delay, min(exc.retry_after, MAX_RETRY_AFTER))
            sleep(wait)
            delay *= 2
    return call()


def require_file(path: str | Path, what: str, error: type[Exception] = DataError) -> Path:
    """``path`` as a ``Path``, or ``error`` naming ``what`` when it is missing or a directory.

    Anything else that can be read is accepted, such as a pipe.
    """
    p = Path(path)
    if not p.exists():
        raise error(f"{what} not found: {p}")
    if p.is_dir():
        raise error(f"{what} is a directory: {p}")
    return p


def require_output(path: str | Path | None, what: str) -> Path | None:
    """An optional output ``path`` as a ``Path`` (``None`` when empty), checked before any work:
    a ``ConfigError`` naming ``what`` when it is a directory or its directory is missing."""
    if not path:
        return None
    p = Path(path)
    if p.is_dir():
        raise ConfigError(f"{what} is a directory: {p}")
    if not p.parent.is_dir():
        raise ConfigError(f"{what} is in a missing directory: {p}")
    return p


def require_directory(path: str | Path | None, what: str) -> Path | None:
    """An optional output directory ``path`` as a ``Path`` (``None`` when empty), checked
    before any work: a ``ConfigError`` naming ``what`` when it, or a directory above it,
    is a file. Missing directories are left to be made."""
    if not path:
        return None
    p = Path(path)
    existing = next(q for q in (p, *p.parents) if q.exists())
    if not existing.is_dir():
        where = "is a file" if existing == p else f"is under a file, {existing}"
        raise ConfigError(f"{what} {where}: {p}")
    return p


def read_utf8(path: Path, error: type[Exception]) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 are ``error``
    naming the file and the 1-based number of their line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # ``bytes.splitlines`` ends lines at \n, \r and \r\n, as text mode
        # does; the added byte stands for the line the bad bytes are on.
        line = len((data[: exc.start] + b".").splitlines())
        raise error(f"{path}: line {line} is not UTF-8 text ({exc.reason})") from None


def read_jsonl(path: str | Path, what: str) -> Iterator[tuple[int, object]]:
    """``(line index, object)`` for each non-blank line of a line-JSON file.

    The index is 0-based and counts blank lines too; lines end at ``\\n``,
    ``\\r`` or ``\\r\\n``, as in text mode. A missing file or a directory
    is a ``DataError`` naming ``what``; a line that is not UTF-8 text or not
    JSON is a ``ParseError`` naming the file and the line's 1-based number.
    """
    p = require_file(path, what)
    with p.open("rb") as fp:
        # A binary read ends lines at \n only; splitting each again ends them
        # where text mode would, and a line's bytes are decoded on their own,
        # so one that is not UTF-8 is named.
        lines = (line for chunk in fp for line in chunk.splitlines())
        for index, raw in enumerate(lines):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{p}: line {index + 1} is not UTF-8 text ({exc.reason})") from None
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{p}: line {index + 1} is not JSON ({exc})") from None
            yield index, obj


def read_records(path: str | Path, what: str, parse: Callable[[object], T]) -> Iterator[T]:
    """``parse(obj)`` for each object of ``read_jsonl(path, what)``.

    A line whose object ``parse`` rejects (a missing key, a value of the
    wrong type or a non-finite vector) is a ``ParseError`` naming the file
    and the line's 1-based number, like a line that is not JSON.
    """
    for index, obj in read_jsonl(path, what):
        try:
            record = parse(obj)
        except (LookupError, TypeError, ValueError, ContractError) as exc:
            raise ParseError(
                f"{path}: line {index + 1} is not a {what} record ({type(exc).__name__}: {exc})"
            ) from None
        yield record
