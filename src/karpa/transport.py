"""Provider I/O shared by every provider: one HTTP call, one retry loop, one line-JSON reader.

An HTTP provider failure takes one of three types, so that only what can
succeed on a retry is retried:

* no connection, a 5xx status or a 429 is ``TransportError``, which
  ``with_retries`` retries;
* any other non-200 status is ``DataError``: the request itself was refused;
* a 200 whose body is unusable is ``ProviderError``. ``post_json`` raises
  it for a body that is not JSON, each provider for a field it needs that
  is missing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from .errors import ContractError, DataError, ParseError, ProviderError, TransportError

T = TypeVar("T")

ATTEMPTS = 3
FIRST_DELAY = 0.25  # seconds; doubled after each failed attempt


def post_json(endpoint: str, body: dict, api_key: str | None, timeout: float, service: str):
    """POST ``body`` as JSON, with ``api_key`` as a bearer token if given; the decoded reply.

    ``service`` names the provider in error messages.
    """
    import requests

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        resp = requests.post(endpoint, json=body, headers=headers, timeout=timeout)
    except requests.RequestException as exc:
        raise TransportError(f"{service} request failed: {exc}") from exc
    if resp.status_code >= 500 or resp.status_code == 429:
        raise TransportError(f"{service} service returned {resp.status_code}")
    if resp.status_code != 200:
        raise DataError(f"{service} service returned {resp.status_code}: {resp.text[:200]}")
    try:
        return resp.json()
    except ValueError:
        raise ProviderError(f"{service} service returned a body that is not JSON: {resp.text[:200]!r}") from None


def with_retries(call: Callable[[], T], sleep: Callable[[float], None]) -> T:
    """``call()``, retried on ``TransportError``: 3 attempts, sleeping 0.25 s, then 0.5 s."""
    delay = FIRST_DELAY
    for _ in range(ATTEMPTS - 1):
        try:
            return call()
        except TransportError:
            sleep(delay)
            delay *= 2
    return call()


def read_jsonl(path: str | Path, what: str) -> Iterator[tuple[int, object]]:
    """``(line index, object)`` for each non-blank line of a line-JSON file.

    The index is 0-based and counts blank lines too. A missing file is a
    ``DataError`` naming ``what``; a line that is not JSON is a
    ``ParseError`` naming the file and the line's 1-based number.
    """
    p = Path(path)
    if not p.exists():
        raise DataError(f"{what} not found: {p}")
    with p.open("r", encoding="utf-8") as fp:
        for index, line in enumerate(fp):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{p}: line {index + 1} is not JSON ({exc})", line=index + 1) from None
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
                f"{path}: line {index + 1} is not a {what} record ({type(exc).__name__}: {exc})",
                line=index + 1,
            ) from None
        yield record
