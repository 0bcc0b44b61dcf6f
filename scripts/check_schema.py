#!/usr/bin/env python3
"""Validate the repo's JSON contracts against the checked-in schemas, with no
third-party dependencies.

Usage::

    python -m repro analyze ... --json | python scripts/check_schema.py
    curl -s localhost:8080/stats | python scripts/check_schema.py
    python scripts/check_schema.py response.json [response2.json ...]

Each input document is dispatched on its ``kind``:

- no ``kind``: the ``analyze --json`` shape, ``schemas/analyze.schema.json``;
- a ``kind``: one query-server envelope from the family pinned in
  ``schemas/server.schema.json`` — first the envelope base (``ok`` + a
  known ``kind``), then the full shape for that ``kind``
  (``#/definitions/<kind>``), and for ``kind=analyze`` the ``analysis``
  payload additionally against the analyze schema (the server's analyze
  body is the CLI's ``analyze --json`` contract verbatim, and this keeps
  the two from drifting apart).

Independently of any input documents, the warning-code enum pinned in the
server schema is cross-checked against the constants in
``repro.resilience.warnings``: a new code cannot ship without extending
the schema, and the schema cannot pin codes the engine no longer emits.

Implements the subset of JSON Schema the schema files use: ``type`` (string
or list of strings), ``properties``, ``required``, ``items``, ``enum``, and
``$ref`` into ``#/definitions``.  CI runs this as a smoke check so the
contracts cannot drift silently.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SCHEMA_PATH = ROOT / "schemas" / "server.schema.json"
ANALYZE_SCHEMA_PATH = ROOT / "schemas" / "analyze.schema.json"

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is a subclass of int in Python: exclude it from the numeric types.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _resolve_ref(ref: str, root: dict) -> dict:
    if not ref.startswith("#/"):
        raise ValueError(f"unsupported $ref {ref!r} (only fragment refs)")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def validate(value, schema: dict, root: dict | None = None, path: str = "$") -> list[str]:
    """Return a list of violation messages (empty = valid)."""
    if root is None:
        root = schema
    if "$ref" in schema:
        return validate(value, _resolve_ref(schema["$ref"], root), root, path)

    errors: list[str] = []
    declared = schema.get("type")
    if declared is not None:
        types = declared if isinstance(declared, list) else [declared]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            return [f"{path}: expected {' | '.join(types)}, got {type(value).__name__}"]
        if value is None and "null" in types:
            return []

    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")

    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in value:
                errors.extend(validate(value[key], subschema, root, f"{path}.{key}"))
    elif isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            errors.extend(validate(item, schema["items"], root, f"{path}[{index}]"))

    return errors


def warning_code_mismatches(schema: dict) -> list[str]:
    """Drift between the server schema's warning-code enum and the engine's
    warning vocabulary (``repro.resilience.warnings``), empty = in sync."""
    from repro.resilience import warnings as warning_codes

    engine_codes = {
        value
        for name, value in vars(warning_codes).items()
        if name.isupper() and isinstance(value, str)
    }
    pinned = set(
        schema["definitions"]["warnings"]["items"]["properties"]["code"]["enum"]
    )
    errors = []
    for code in sorted(engine_codes - pinned):
        errors.append(
            f"warning code {code!r} exists in repro.resilience.warnings "
            "but is not pinned in the schema enum"
        )
    for code in sorted(pinned - engine_codes):
        errors.append(
            f"warning code {code!r} is pinned in the schema enum but "
            "repro.resilience.warnings no longer defines it"
        )
    return errors


def validate_envelope(document: object, schema: dict, analyze_schema: dict) -> list[str]:
    """All violations for one server envelope (empty = valid)."""
    errors = validate(document, schema, root=schema)
    if errors or not isinstance(document, dict):
        return errors
    kind = document.get("kind")
    definition = schema["definitions"].get(kind)
    if definition is None:  # the enum check above already flagged it
        return [f"$: unknown envelope kind {kind!r}"]
    errors = validate(document, definition, root=schema, path=f"$({kind})")
    if not errors and kind == "analyze":
        errors = validate(
            document["analysis"], analyze_schema, path="$(analyze).analysis"
        )
    return errors


def main(argv: list[str]) -> int:
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    analyze_schema = json.loads(ANALYZE_SCHEMA_PATH.read_text(encoding="utf-8"))
    drift = warning_code_mismatches(schema)
    for message in drift:
        print(f"schema drift: {message}", file=sys.stderr)
    if drift:
        return 1
    sources = (
        [(path, Path(path).read_text(encoding="utf-8")) for path in argv[1:]]
        if len(argv) > 1
        else [("<stdin>", sys.stdin.read())]
    )
    failed = False
    for name, text in sources:
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            print(f"{name}: invalid JSON: {error}", file=sys.stderr)
            return 2
        if isinstance(document, dict) and "kind" in document:
            errors = validate_envelope(document, schema, analyze_schema)
        else:
            errors = validate(document, analyze_schema)
        for message in errors:
            print(f"{name}: schema violation: {message}", file=sys.stderr)
        failed = failed or bool(errors)
    if failed:
        return 1
    print(f"{len(sources)} document(s) conform to schemas/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
