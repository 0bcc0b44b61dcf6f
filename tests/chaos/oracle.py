"""The chaos invariant oracle.

Every faulted run is judged against a **healthy twin** — the same query
over the same corpus with no fault injected.  The contract under fault is
narrow and absolute:

- the faulted answer's rows are **byte-identical** to the healthy twin's
  (degradation machinery preserved the answer), OR
- the loss is **flagged**: rows are a subset of the healthy rows and the
  result carries the documented warning codes (``partial-result`` plus a
  cause like ``shard-failed`` / ``shard-timeout``), OR
- the request failed with a **typed** error from the scenario's allowed
  set (never a bare ``Exception``, never a hang);

and the whole run finished inside the scenario's wall-clock bound.

Checks are plain data (:class:`Check`), so a failed case lists every
invariant it ran and which ones broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass
class Check:
    """One verified invariant: what was asserted and whether it held."""

    name: str
    ok: bool
    message: str

    def __str__(self) -> str:
        return f"{'ok' if self.ok else 'FAIL'}: {self.name} — {self.message}"


@dataclass
class Verdict:
    """Every check the oracle ran for one faulted execution."""

    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        # A verdict that checked nothing proves nothing: it fails.
        return bool(self.checks) and all(check.ok for check in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.ok]

    def add(self, name: str, ok: bool, message: str) -> Check:
        check = Check(name, bool(ok), message)
        self.checks.append(check)
        return check

    # -- invariants ------------------------------------------------------------

    def rows_identical_or_flagged(
        self,
        faulted_rows: set[tuple],
        healthy_rows: set[tuple],
        codes: Iterable[str],
        flag: str = "partial-result",
    ) -> None:
        """Rows byte-identical to the healthy twin, or a flagged subset."""
        codes = set(codes)
        if faulted_rows == healthy_rows:
            self.add(
                "rows",
                True,
                f"byte-identical to the healthy twin ({len(healthy_rows)} row(s))",
            )
            return
        if not faulted_rows <= healthy_rows:
            invented = len(faulted_rows - healthy_rows)
            self.add(
                "rows",
                False,
                f"faulted run invented {invented} row(s) absent from the "
                "healthy twin",
            )
            return
        self.add(
            "rows",
            flag in codes,
            f"lost {len(healthy_rows - faulted_rows)} row(s) "
            + (f"and flagged {flag!r}" if flag in codes else f"WITHOUT {flag!r}"),
        )

    def codes_within(self, codes: Iterable[str], allowed: Iterable[str]) -> None:
        """Every warning code is one the scenario documents."""
        unexpected = sorted(set(codes) - set(allowed))
        self.add(
            "warning-codes",
            not unexpected,
            "all codes documented" if not unexpected else f"unexpected {unexpected}",
        )

    def codes_include(self, codes: Iterable[str], required: Iterable[str]) -> None:
        """The documented cause codes actually showed up."""
        missing = sorted(set(required) - set(codes))
        self.add(
            "cause-flagged",
            not missing,
            f"carries {sorted(set(required))}" if not missing else f"missing {missing}",
        )

    def bounded(self, elapsed_s: float, bound_s: float, label: str = "run") -> None:
        """The faulted run finished inside its wall-clock bound — a hang
        that outlives the bound is a failed invariant, not a slow test."""
        self.add(
            "bounded",
            elapsed_s <= bound_s,
            f"{label} took {elapsed_s:.3f}s (bound {bound_s:.3f}s)",
        )

    def typed_error(self, error: BaseException | None, allowed: tuple[type, ...]) -> None:
        """The failure (if any) is a typed, documented error."""
        if error is None:
            self.add("typed-error", False, "expected a typed error, none was raised")
            return
        self.add(
            "typed-error",
            isinstance(error, allowed),
            f"{type(error).__name__} "
            + (
                "is documented"
                if isinstance(error, allowed)
                else f"not in {tuple(t.__name__ for t in allowed)}"
            ),
        )

    def envelope_error(
        self,
        status: int,
        payload: dict[str, Any],
        expected_status: int | Iterable[int],
        expected_codes: Iterable[str],
    ) -> None:
        """A server envelope failed with the documented status + code."""
        statuses = (
            {expected_status}
            if isinstance(expected_status, int)
            else set(expected_status)
        )
        code = payload.get("error", {}).get("code")
        ok = status in statuses and code in set(expected_codes)
        self.add(
            "envelope",
            ok,
            f"status {status} code {code!r}"
            + (
                ""
                if ok
                else f" (wanted {sorted(statuses)} / {sorted(set(expected_codes))})"
            ),
        )
