"""Opt-in line coverage of ``src/gradeswitch`` for a pytest run, stdlib only.

    PYTHONPATH=src:tests python -m pytest -p linecov [pytest arguments]

The plain test run does not load it.  It traces the frames of the package
with ``sys.settrace`` and, at the end of the run, lists every line of a
package function that never ran, one statement a line, as

    file:function: statement

with the statement's first source line (comment cut) in place of a line
number, so that a report survives lines moving.  Only function code is
counted: module and class bodies run at import, before any test.  Code
run in a subprocess (the CLI tests that start ``python -m
gradeswitch.cli``) is not seen.

``linecov_allow.txt`` beside this file lists the statements that are
meant never to run, each with its reason: those are left out of the
report, and an entry that names no statement of the package is reported
as stale.  Tracing makes the run about three times slower, so tests with a
wall-clock budget may fail under it and only there.
"""

import ast
import dis
import importlib.util
import inspect
import pathlib
import sys
import tokenize

import pytest

ALLOWLIST = pathlib.Path(__file__).with_name("linecov_allow.txt")


def executable_lines(code):
    """The lines of a function's code object that raise a 'line' trace
    event when they run: every line of an instruction after the prologue
    that ends at the first RESUME (the def or decorator line of a
    function, which raises no event)."""
    resume = next(i.offset for i in dis.get_instructions(code)
                  if i.opname == "RESUME")
    return {line for _, end, line in code.co_lines()
            if line is not None and end > resume + 2}


def function_codes(code):
    """The function code objects nested in `code`, at any depth
    (comprehensions and lambdas included)."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from function_codes(const)


def statements(tree):
    """{line: (first line of the innermost statement that holds it, the
    dotted name of the def or class around that statement)}"""
    where = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.stmt):
                for line in range(child.lineno, child.end_lineno + 1):
                    where[line] = (child.lineno, scope)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    inner = child.name if scope is None else \
                        scope + "." + child.name
            visit(child, inner)
    visit(tree, None)
    return where


def source_lines(path):
    """The lines of the file, stripped, with any comment cut off."""
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = path.read_text().splitlines()
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    return [line.strip() for line in lines]


class Module:
    """One file of the package: its executable lines and where each
    statement starts."""

    def __init__(self, path):
        self.path = path
        text = path.read_text()
        code = compile(text, str(path), "exec")
        self.lines = set()
        for fn in function_codes(code):
            self.lines |= executable_lines(fn)
        self.where = statements(ast.parse(text))
        self.text = source_lines(path)

    def key(self, line):
        first, scope = self.where[line]
        return "%s:%s: %s" % (self.path.name, scope or "<module>",
                              self.text[first - 1])


def read_allowlist(path=ALLOWLIST):
    """{entry: reason}: entries are the lines at the left margin, and the
    indented lines under a run of entries are the reason of each of them;
    lines starting with # are comments."""
    allowed, group, reasoned = {}, [], False
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace():
            for entry in group:
                allowed[entry] = (allowed[entry] + " " + line.strip()).strip()
            reasoned = True
        else:
            if reasoned:
                group, reasoned = [], False
            group.append(line.rstrip())
            allowed[line.rstrip()] = ""
    return allowed


class LineCoverage:
    def __init__(self, package):
        self.modules = {str(path): Module(path)
                        for path in sorted(package.glob("*.py"))}
        self.left = {}       # id(live code) -> its lines not yet run
        self.codes = []      # the live code objects, kept alive
        self.local = self.trace_lines

    def trace_calls(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.modules or \
                not code.co_flags & inspect.CO_OPTIMIZED:
            return None
        left = self.left.get(id(code))
        if left is None:
            left = self.left[id(code)] = executable_lines(code)
            self.codes.append(code)
        return self.local if left else None

    def trace_lines(self, frame, event, arg):
        if event == "line":
            self.left[id(frame.f_code)].discard(frame.f_lineno)
        return self.local

    def unreached(self):
        """{module file: its executable lines that never ran}"""
        ran = {name: set() for name in self.modules}
        for code in self.codes:
            ran[code.co_filename] |= (executable_lines(code)
                                      - self.left[id(code)])
        return {name: mod.lines - ran[name]
                for name, mod in self.modules.items()}

    def report(self, allowed):
        """(summary line, report lines, stale allowlist entries)"""
        unreached = self.unreached()
        mods = self.modules.values()
        keys = list(dict.fromkeys(mod.key(line)
                                  for name, mod in self.modules.items()
                                  for line in sorted(unreached[name])))
        every = {mod.key(line) for mod in mods for line in mod.lines}
        shown = [k for k in keys if k not in allowed]
        summary = ("linecov: %d of %d executable lines never ran; %d "
                   "statements, %d of them allowlisted"
                   % (sum(map(len, unreached.values())),
                      sum(len(mod.lines) for mod in mods), len(keys),
                      len(keys) - len(shown)))
        return summary, shown, sorted(set(allowed) - every)


def pytest_configure(config):
    spec = importlib.util.find_spec("gradeswitch")
    package = pathlib.Path(spec.submodule_search_locations[0])
    config._linecov = LineCoverage(package)
    sys.settrace(config._linecov.trace_calls)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # a test may have dropped the tracer (a debugger, a tracing library)
    sys.settrace(item.config._linecov.trace_calls)
    yield


def pytest_terminal_summary(terminalreporter, config):
    sys.settrace(None)
    summary, shown, stale = config._linecov.report(read_allowlist())
    terminalreporter.section("linecov")
    terminalreporter.write_line(summary)
    for key in shown:
        terminalreporter.write_line(key)
    for key in stale:
        terminalreporter.write_line("stale allowlist entry: " + key)
