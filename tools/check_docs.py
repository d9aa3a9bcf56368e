#!/usr/bin/env python
"""Documentation checker: links resolve, documented code actually runs.

Run from the repository root (CI's ``docs`` job does)::

    python tools/check_docs.py

Three passes over ``README.md`` and ``docs/*.md``:

1. **Links.**  Every relative markdown link target (``[text](path)``,
   ``#anchor`` stripped) must exist on disk.  ``http(s)``/``mailto``
   targets are not fetched.
2. **Python snippets.**  Every fenced ``python`` block must compile; it
   is then executed in a scratch directory with ``src/`` importable.
   Blocks may use an undefined ``workload`` variable — the checker
   pre-seeds one small suite workload, so illustrative fragments stay
   short.  A ``<!-- doccheck: skip -->`` comment on the line directly
   above a fence downgrades that block to compile-only (for fragments
   that are illustrative by design or too slow for CI).
3. **Shell snippets.**  Fenced ``bash`` blocks are statically validated
   line by line: ``python -m repro <cmd>`` must name a real CLI
   subcommand, and path-like arguments to ``python``/``pytest`` must
   exist.  Nothing is executed — these blocks include full-matrix runs.
4. **HTTP surface.**  The service docs are checked against the real
   route table (``repro.service.app.ROUTES``): every documented
   ``METHOD /api/v1/...`` heading must name a live route, every ``curl``
   line in a bash block must target one, and every route must appear in
   ``docs/service.md`` (the ``/api/v1/workers/*`` routes additionally in
   ``docs/distributed.md``) — the docs and the dispatcher cannot drift
   apart.
   Python snippets that read ``REPRO_SERVICE_URL`` run against a real
   service booted once on an ephemeral port in a scratch directory.

Exit status 0 when everything passes; 1 with a per-finding report
otherwise.
"""

from __future__ import annotations

import contextlib
import os
import re
import subprocess
import sys
import tempfile
from typing import Iterator, List, NamedTuple, Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_MARKER = "<!-- doccheck: skip -->"
SERVICE_DOC = os.path.join(REPO, "docs", "service.md")
DIST_DOC = os.path.join(REPO, "docs", "distributed.md")

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")


class Snippet(NamedTuple):
    path: str
    line: int
    lang: str
    text: str
    skipped: bool


def doc_files() -> List[str]:
    files = [os.path.join(REPO, "README.md")]
    docs_dir = os.path.join(REPO, "docs")
    for name in sorted(os.listdir(docs_dir)):
        if name.endswith(".md"):
            files.append(os.path.join(docs_dir, name))
    return files


# ----------------------------------------------------------------------
# pass 1: links
# ----------------------------------------------------------------------
def check_links(path: str) -> Iterator[str]:
    base = os.path.dirname(path)
    root = REPO if os.path.abspath(path).startswith(REPO) else base
    for lineno, line in enumerate(open(path), start=1):
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue  # pure in-page anchor
            resolved = os.path.normpath(os.path.join(base, target))
            if not resolved.startswith(root):
                continue  # GitHub-relative URL (e.g. the CI badge)
            if not os.path.exists(resolved):
                yield (f"{os.path.relpath(path, REPO)}:{lineno}: "
                       f"broken link -> {target}")


# ----------------------------------------------------------------------
# pass 2 + 3: fenced code blocks
# ----------------------------------------------------------------------
def snippets(path: str) -> Iterator[Snippet]:
    lines = open(path).read().splitlines()
    i = 0
    skip_next = False
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped == SKIP_MARKER:
            skip_next = True
            i += 1
            continue
        match = FENCE_RE.match(stripped)
        if match:
            lang = match.group(1).lower()
            start = i + 1
            i = start
            while i < len(lines) and not lines[i].strip().startswith("```"):
                i += 1
            yield Snippet(path, start + 1, lang,
                          "\n".join(lines[start:i]), skip_next)
            skip_next = False
        elif stripped:
            skip_next = False
        i += 1


_PY_PRELUDE = """\
import sys
sys.path.insert(0, {src!r})
from repro.workloads import load_suite as _ds_load_suite
workload = _ds_load_suite(["lammps"])[0]
del _ds_load_suite
"""


def check_python(snippet: Snippet, extra_env: Optional[dict] = None) -> Iterator[str]:
    where = f"{os.path.relpath(snippet.path, REPO)}:{snippet.line}"
    try:
        compile(snippet.text, where, "exec")
    except SyntaxError as exc:
        yield f"{where}: python snippet does not compile: {exc}"
        return
    if snippet.skipped:
        return
    src = os.path.join(REPO, "src")
    prelude = _PY_PRELUDE.format(src=src)
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ, REPRO_CACHE="0", **(extra_env or {}))
        proc = subprocess.run(
            [sys.executable, "-c", prelude + snippet.text],
            cwd=scratch, env=env, capture_output=True, text=True,
            timeout=300,
        )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1] if proc.stderr else "?"
        yield f"{where}: python snippet failed when executed: {tail}"


def _cli_subcommands() -> set:
    """Parse the subcommand names out of ``python -m repro --help``.

    The usage line holds several ``{a,b,...}`` choice groups (global
    options like ``--backend`` have them too); the subcommand list is
    by far the largest one.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        cwd=REPO, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")),
    )
    groups = re.findall(r"\{([a-z,-]+)\}", proc.stdout)
    if not groups:
        return set()
    return set(max(groups, key=lambda g: g.count(",")).split(","))


def _join_continuations(text: str) -> List[str]:
    """Merge backslash-continued lines so multi-line commands check whole."""
    merged: List[str] = []
    for raw in text.splitlines():
        if merged and merged[-1].rstrip().endswith("\\"):
            merged[-1] = merged[-1].rstrip()[:-1] + " " + raw.strip()
        else:
            merged.append(raw)
    return merged


def check_bash(snippet: Snippet, subcommands: set, routes: list) -> Iterator[str]:
    where = f"{os.path.relpath(snippet.path, REPO)}:{snippet.line}"
    for raw in _join_continuations(snippet.text):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("$ "):
            line = line[2:]
        line = line.split(" #", 1)[0]  # inline comments
        # drop leading VAR=value environment assignments
        words = line.split()
        while words and re.fullmatch(r"[A-Z_]+=\S*", words[0]):
            words.pop(0)
        if not words:
            continue
        cmd = words[0]
        if cmd in ("pip", "cd", "export"):
            continue
        if cmd == "curl":
            yield from check_curl(where, line, routes)
            continue
        if cmd == "python" and words[1:3] == ["-m", "repro"]:
            # global options that take a value before the subcommand
            value_flags = {"--jobs", "--backend", "--store"}
            sub = None
            for prev, word in zip(words[2:], words[3:]):
                if not word.startswith("-") and prev not in value_flags:
                    sub = word
                    break
            if sub is not None and sub not in subcommands:
                yield (f"{where}: `python -m repro {sub}` — no such "
                       f"subcommand (have: {sorted(subcommands)})")
            continue
        if cmd in ("python", "pytest"):
            for arg in words[1:]:
                if arg.startswith("-") or "=" in arg:
                    continue
                if "/" in arg or arg.endswith((".py", ".json", ".md")):
                    if not os.path.exists(os.path.join(REPO, arg)):
                        yield f"{where}: references missing path {arg}"


# ----------------------------------------------------------------------
# pass 4: the documented HTTP surface vs the real route table
# ----------------------------------------------------------------------
def service_routes() -> List[tuple]:
    """``(method, pattern)`` pairs from the live dispatcher table."""
    sys.path.insert(0, os.path.join(REPO, "src"))
    from repro.service.app import ROUTES
    return [(route.method, route.pattern) for route in ROUTES]


def _path_matches(pattern: str, path: str) -> bool:
    want = pattern.strip("/").split("/")
    got = path.strip("/").split("/")
    if len(want) != len(got):
        return False
    for expected, actual in zip(want, got):
        if expected.startswith("<") and expected.endswith(">"):
            if not actual:
                return False  # a parameter slot needs *some* segment
        elif expected != actual:
            return False
    return True


_CURL_PATH_RE = re.compile(r"/api/v1[^\s'\"?]*")
_CURL_METHOD_RE = re.compile(r"(?:-X|--request)[ =]([A-Z]+)")


def check_curl(where: str, line: str, routes: List[tuple]) -> Iterator[str]:
    """A documented ``curl`` line must target a route that exists."""
    paths = _CURL_PATH_RE.findall(line)
    if not paths:
        yield f"{where}: curl line does not target an /api/v1 path"
        return
    match = _CURL_METHOD_RE.search(line)
    if match:
        method = match.group(1)
    elif " -d " in line or " --data" in line or " --json" in line:
        method = "POST"  # curl switches to POST when a body is given
    else:
        method = "GET"
    for path in paths:
        if not any(m == method and _path_matches(p, path)
                   for m, p in routes):
            yield (f"{where}: `curl` targets {method} {path} — not in the "
                   f"service route table")


def check_route_coverage(routes: List[tuple]) -> Iterator[str]:
    """Every route must be documented verbatim in docs/service.md, and
    the distributed-worker routes additionally in docs/distributed.md."""
    if not os.path.exists(SERVICE_DOC):
        yield "docs/service.md missing — the service API reference is required"
        return
    text = open(SERVICE_DOC).read()
    for method, pattern in routes:
        if f"{method} {pattern}" not in text:
            yield (f"docs/service.md: route `{method} {pattern}` is "
                   f"undocumented (add a literal 'METHOD /path' heading)")
    worker_routes = [(m, p) for m, p in routes
                     if p.startswith("/api/v1/workers")]
    if not os.path.exists(DIST_DOC):
        yield ("docs/distributed.md missing — the worker protocol "
               "reference is required")
        return
    dist_text = open(DIST_DOC).read()
    for method, pattern in worker_routes:
        if f"{method} {pattern}" not in dist_text:
            yield (f"docs/distributed.md: worker route `{method} {pattern}` "
                   f"is undocumented (add a literal 'METHOD /path' heading)")


def main() -> int:
    findings: List[str] = []
    checked = [0, 0, 0, 0]  # files, python snippets, bash snippets, curl lines
    subcommands = _cli_subcommands()
    if not subcommands:
        findings.append("could not determine CLI subcommands from --help")
    routes = service_routes()
    findings.extend(check_route_coverage(routes))

    files = doc_files()
    per_file = {path: list(snippets(path)) for path in files}
    needs_service = any(
        s.lang == "python" and not s.skipped and "REPRO_SERVICE_URL" in s.text
        for chunk in per_file.values() for s in chunk
    )
    with contextlib.ExitStack() as stack:
        extra_env = {}
        if needs_service:
            from repro.service.app import background_server
            scratch = stack.enter_context(tempfile.TemporaryDirectory())
            extra_env["REPRO_SERVICE_URL"] = stack.enter_context(
                background_server(db_path=os.path.join(scratch, "docs.sqlite"),
                                  jobs=1)
            )
        for path in files:
            findings.extend(check_links(path))
            checked[0] += 1
            for snippet in per_file[path]:
                if snippet.lang == "python":
                    checked[1] += 1
                    findings.extend(check_python(snippet, extra_env))
                elif snippet.lang == "bash":
                    checked[2] += 1
                    checked[3] += sum(
                        1 for ln in _join_continuations(snippet.text)
                        if ln.strip().startswith(("curl", "$ curl"))
                    )
                    findings.extend(check_bash(snippet, subcommands, routes))
    for finding in findings:
        print(f"FAIL {finding}")
    print(
        f"check_docs: {checked[0]} files, {checked[1]} python snippets "
        f"executed, {checked[2]} bash snippets validated "
        f"({checked[3]} curl lines), {len(routes)} routes cross-checked — "
        f"{len(findings)} finding(s)"
    )
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
