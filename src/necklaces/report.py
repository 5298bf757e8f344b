"""A tiny pass/fail report shared by the verification routines."""

from __future__ import annotations


class CheckEntry:
    """One named check, its outcome and an optional detail."""

    __slots__ = ("label", "ok", "detail")

    def __init__(self, label: str, ok: bool, detail: str = ""):
        self.label, self.ok, self.detail = label, ok, detail

    def __eq__(self, other):
        if type(other) is not CheckEntry:
            return NotImplemented
        return (self.label, self.ok, self.detail) == (other.label, other.ok, other.detail)

    def __repr__(self):
        return f"CheckEntry({self.label!r}, {self.ok!r}, {self.detail!r})"


class CheckReport:
    """A titled list of check entries; it passes when every entry does."""

    __slots__ = ("title", "entries")

    def __init__(self, title: str, entries: list[CheckEntry] | None = None):
        self.title = title
        self.entries = [] if entries is None else entries

    def __eq__(self, other):
        if type(other) is not CheckReport:
            return NotImplemented
        return (self.title, self.entries) == (other.title, other.entries)

    def __repr__(self):
        return f"CheckReport({self.title!r}, {self.entries!r})"

    def add(self, label: str, ok: bool, detail: str = ""):
        self.entries.append(CheckEntry(label, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.ok]

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            status = "ok" if e.ok else "FAIL"
            suffix = f"  {e.detail}" if e.detail else ""
            out.append(f"[{status}] {e.label}{suffix}")
        return out

    def __str__(self):
        body = "\n".join(self.lines())
        verdict = "pass" if self.ok else "FAIL"
        return f"{self.title}: {verdict}\n{body}" if body else f"{self.title}: {verdict}"
