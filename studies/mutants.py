#!/usr/bin/env python3
"""A mutation kill matrix: which tests kill which one-operator change of the package.

Usage, from anywhere in a checkout:

    python3 studies/mutants.py

Each site of each Python module of ``src/coopmot`` gets one mutant: a
comparison moved across its boundary, an arithmetic operator swapped (also
in augmented assignments) or a unary minus dropped, ``and``/``or`` swapped
or a ``not`` dropped, a number changed (0 to 1, 1 to 0, else c + 1) or a
bool flipped (tables COMPARE and ARITH). Annotations and f-strings are left
alone; ``_native.c`` is outside the matrix.

The tree holding this script is copied once per job under
``bench_out/mutants/`` and mutated only there. A first pytest run records,
with ``sys.settrace``, the package lines each test executes, in its own
process and in the Python processes it starts. A mutant runs the tests that
execute its lines (for a value computed at import: the function a default
belongs to, else the module and the modules importing from it). A test
executing more than BROAD of the suite's lines is broad: broad tests run
only when no narrow test kills the mutant, in suite order, and stop at the
first kill, so a broad test's kill set is partial. Children are forked from
this process with a fixed ``--hypothesis-seed``, an address-space limit and
a time limit per test (SLACK times its first-run time plus GRACE seconds);
a test that hits a limit, or that the mutant leaves uncollected, kills it
and is named in ``limits``.

``studies/MUTANTS.json`` holds the tests, the broad ones and one line per
mutant: its site, operator, seconds, tests run and killing tests. A
survivor's hand-written ``reason`` (``equivalent: ...`` or ``FOUND: ...``)
is kept when a rebuild still finds it surviving. A mutant that the matrix
being replaced records as killed and that survives the rebuild is a lost
kill: the rebuild still writes the matrix, prints each lost kill and exits
1. Standard library only; the tests it runs need pytest and hypothesis.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import json
import os
import resource
import select
import shutil
import signal
import sys
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
           ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
           ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
           ast.In: ("in", "not in"), ast.NotIn: ("not in", "in")}
ARITH = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
         ast.Div: ("/", "*"), ast.FloorDiv: ("//", "/"), ast.Mod: ("%", "*"),
         ast.Pow: ("**", "*"), ast.BitAnd: ("&", "|"), ast.BitOr: ("|", "&")}
PACKAGE = os.path.join("src", "coopmot")
BROAD = 0.1  # share of the suite's lines a broad test executes
SLACK, GRACE = 5.0, 5.0  # a test's time limit: SLACK * its first-run time + GRACE s
JOBS = 2  # children at a time: both cores
SEED = 0  # every child's --hypothesis-seed
LIMIT_MB = 4096  # the address space of each child
IGNORE = shutil.ignore_patterns(".git", "bench_out", "__pycache__", "*.so", "*.pyc",
                                ".hypothesis", ".pytest_cache", "build")
SITECUSTOMIZE = '''\
import atexit, json, os, sys
_prefix, _lines = os.environ["MUTANTS_PREFIX"], {}
def _local(frame, event, arg):
    if event == "line":
        _lines.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _local
@atexit.register
def _dump():
    sys.settrace(None)
    name = f"{os.environ['MUTANTS_TEST']}.{os.getpid()}"
    with open(os.path.join(os.environ["MUTANTS_TRACE"], name), "w") as fh:
        json.dump({f: sorted(ls) for f, ls in _lines.items()}, fh)
sys.settrace(lambda frame, event, arg: _local if frame.f_code.co_filename.startswith(_prefix)
             else None)
'''


# -- sites ------------------------------------------------------------------

def _char_col(lines, lineno, byte_col):
    return len(lines[lineno - 1].encode()[:byte_col].decode())


def _tokens_between(tokens, start, end, text):
    """The (start, end) of the operator spelt `text` between two positions."""
    words = text.split()
    for k, tok in enumerate(tokens):
        if tok.start >= start and tok.end <= end and tok.string == words[0]:
            run = tokens[k:k + len(words)]
            if [t.string for t in run] == words:
                return run[0].start, run[-1].end
    return None


class _Sites(ast.NodeVisitor):
    def __init__(self, source):
        self.lines = source.splitlines(keepends=True)
        self.tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
                       if t.type in (tokenize.OP, tokenize.NAME, tokenize.NUMBER,
                                     tokenize.STRING)]
        self.scope, self.found, self.body = [], [], None

    def start(self, node):
        return node.lineno, _char_col(self.lines, node.lineno, node.col_offset)

    def end(self, node):
        return node.end_lineno, _char_col(self.lines, node.end_lineno, node.end_col_offset)

    def add(self, node, operator, span, text, new):
        if span is not None:
            self.found.append({"function": ".".join(self.scope) or "<module>",
                               "line": span[0][0], "col": span[0][1], "operator": operator,
                               "source": text, "mutant": new, "span": span,
                               "lines": [node.lineno, node.end_lineno], "body": self.body})

    def between(self, node, left, right, text, new, operator):
        self.add(node, operator, _tokens_between(self.tokens, self.end(left),
                                                 self.start(right), text), text, new)

    def visit_scoped(self, node):
        for deco in node.decorator_list:
            self.visit(deco)
        if isinstance(node, ast.ClassDef):
            for base in node.bases + node.keywords:
                self.visit(base)
        else:
            self.body = (node.body[0].lineno, node.end_lineno)  # where a default is read
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                self.visit(default)
            self.body = None
        self.scope.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scoped

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)

    def visit_JoinedStr(self, node):
        pass

    def visit_Compare(self, node):
        for left, op, right in zip([node.left] + node.comparators, node.ops, node.comparators):
            self.between(node, left, right, *COMPARE[type(op)], "compare")
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if type(node.op) in ARITH:
            self.between(node, node.left, node.right, *ARITH[type(node.op)], "arith")
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if type(node.op) in ARITH:
            old, new = ARITH[type(node.op)]
            self.between(node, node.target, node.value, old + "=", new + "=", "arith")
        self.generic_visit(node)

    def visit_BoolOp(self, node):
        old, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
        for left, right in zip(node.values, node.values[1:]):
            self.between(node, left, right, old, new, "boolean")
        self.generic_visit(node)

    def visit_UnaryOp(self, node):
        if isinstance(node.op, (ast.Not, ast.USub)):
            text = "not" if isinstance(node.op, ast.Not) else "-"
            start = self.start(node)
            span = _tokens_between(self.tokens, start, self.start(node.operand), text)
            if span is not None and text == "not":  # and the space after it
                span = (span[0], next(t.start for t in self.tokens if t.start >= span[1]))
            self.add(node, "boolean" if text == "not" else "arith", span,
                     text, "")
        self.generic_visit(node)


    def visit_Constant(self, node):
        value = node.value
        if isinstance(value, bool):
            new = repr(not value)
        elif isinstance(value, (int, float)):
            new = repr(type(value)(1 if value == 0 else 0 if value == 1 else value + 1))
        else:
            return
        (line, start), (end_line, end) = self.start(node), self.end(node)
        if line == end_line:
            self.add(node, "constant", ((line, start), (line, end)),
                     self.lines[line - 1][start:end], new)


def sites(path):
    """The module's source and every mutation site in it, in source order."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    finder = _Sites(source)
    finder.visit(ast.parse(source))
    return source, sorted(finder.found, key=lambda s: (s["span"], s["mutant"]))


def mutate(source, span, new):
    lines = source.splitlines(keepends=True)
    (sl, sc), (el, ec) = span
    return ("".join(lines[:sl - 1]) + lines[sl - 1][:sc] + new + lines[el - 1][ec:]
            + "".join(lines[el:]))


# -- pytest children --------------------------------------------------------

def _reporter(fd, prefix):
    """A pytest plugin writing `S nodeid` and `E outcome seconds nodeid` lines
    to fd; given the package's path prefix, it also traces the package's lines."""
    import subprocess

    import pytest

    class Reporter:
        def __init__(self):
            self.lines, self.setup_lines, self.at_import = {}, {}, {}
            self.python_children, self.current = set(), None

        def trace(self, into):
            def local(frame, event, arg):
                if event == "line":
                    into.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
                return local
            sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename
                         .startswith(prefix) else None)

        def pytest_configure(self, config):
            if prefix:
                self.trace(self.at_import)
                execute, reporter = subprocess.Popen._execute_child, self

                def execute_child(popen, args, executable, *rest):
                    argv0 = executable or (args if isinstance(args, (str, bytes)) else args[0])
                    if os.path.basename(os.fsdecode(argv0)).startswith("python"):
                        reporter.python_children.add(reporter.current)
                    return execute(popen, args, executable, *rest)
                subprocess.Popen._execute_child = execute_child

        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item, nextitem):
            self.current, self.failed = item.nodeid, False
            os.write(fd, f"S {item.nodeid}\n".encode())
            if prefix:
                os.environ["MUTANTS_TEST"] = str(len(self.lines))
                for value in vars(item.module).values():  # lru_cache'd helpers
                    if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                        value.cache_clear()
                self.trace(self.lines.setdefault(item.nodeid, {}))
            began = time.perf_counter()
            yield
            took = time.perf_counter() - began
            if prefix:
                self.trace(self.at_import)
            outcome = "failed" if self.failed else "passed"
            os.write(fd, f"E {outcome} {took:.4f} {item.nodeid}\n".encode())

        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_setup(self, item):
            if prefix:
                self.trace(self.setup_lines.setdefault(item.nodeid, {}))
            yield
            if prefix:
                self.trace(self.lines[item.nodeid])

        def pytest_runtest_logreport(self, report):
            self.failed |= report.failed

    return Reporter()


class Setup:
    """What the children of one run share."""

    def __init__(self):
        self.times, self.unknown, self.trace = {}, 600.0, None

    def limit(self, nodeid):
        return SLACK * self.times.get(nodeid, self.unknown) + GRACE

    def fork(self, copy, nodeids):
        """Fork a child that runs pytest on nodeids in copy; return (pid, fd)."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid:
            os.close(write_fd)
            return pid, read_fd
        code = 1
        try:
            os.close(read_fd)
            os.chdir(copy)
            log = os.open(".pytest.log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            os.dup2(log, 1)
            os.dup2(log, 2)
            resource.setrlimit(resource.RLIMIT_AS, (LIMIT_MB << 20,) * 2)
            parent = os.path.join(copy, os.path.dirname(PACKAGE))
            sys.path.insert(0, parent)
            sys.dont_write_bytecode = True
            trace, prefix = self.trace, None
            os.environ["PYTHONPATH"] = os.pathsep.join(
                p for p in (trace and trace["site"], parent, os.environ.get("PYTHONPATH")) if p)
            if trace:
                prefix = os.path.join(copy, PACKAGE) + os.sep
                os.environ.update(MUTANTS_TRACE=trace["dir"], MUTANTS_PREFIX=prefix)
            import pytest
            from hypothesis import HealthCheck, Phase, settings
            settings.register_profile("mutants", database=None, deadline=None,
                                      phases=[Phase.explicit, Phase.generate],
                                      suppress_health_check=list(HealthCheck))
            reporter = _reporter(write_fd, prefix)
            ini = next((name for name in ("pytest.ini", "pyproject.toml", "tox.ini", "setup.cfg")
                        if os.path.exists(name)), os.devnull)  # the copy's own, not a parent's
            code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", copy, "-c", ini,
                                "--basetemp", ".tmp",
                                f"--hypothesis-seed={SEED}",
                                "--hypothesis-profile=mutants", *nodeids], plugins=[reporter])
            if trace:
                sys.settrace(None)
                sets = {name: {t: {f: sorted(ls) for f, ls in v.items()} for t, v in got.items()}
                        for name, got in (("tests", reporter.lines),
                                          ("setup", reporter.setup_lines))}
                with open(os.path.join(trace["dir"], "main.json"), "w") as fh:
                    json.dump({**sets, "import": {f: sorted(ls) for f, ls in
                                                  reporter.at_import.items()},
                               "python_children": sorted(reporter.python_children),
                               "modules": sorted(m for m in sys.modules if "." not in m)}, fh)
        finally:
            os._exit(int(code))


class Job:
    """Children over one selection: past a test that hits a limit, the rest
    runs in a new child; with stop, the job ends at the first kill."""

    def __init__(self, setup, copy, spec):
        self.setup, self.copy = setup, copy
        todo, _, self.tag, self.stop = spec
        self.todo = list(todo)
        self.outcomes, self.began = {}, time.perf_counter()
        self.spawn()

    def spawn(self):
        self.pid, self.fd = self.setup.fork(self.copy, self.todo)
        self.buffer, self.current, self.since = b"", None, time.perf_counter()

    def deadline(self):  # collecting takes up to a minute
        limit = self.setup.limit(self.current) if self.current else 60 + GRACE
        return self.since + limit

    def feed(self):
        """Read what the child wrote; return True when the job is over."""
        chunk = os.read(self.fd, 1 << 16)
        if not chunk:
            os.close(self.fd)
            os.waitpid(self.pid, 0)
            return self.ended("crash")
        *lines, self.buffer = (self.buffer + chunk).split(b"\n")
        for line in lines:
            kind, rest = line.decode().split(" ", 1)
            self.since = time.perf_counter()
            if kind == "S":
                self.current = rest
                continue
            outcome, seconds, nodeid = rest.split(" ", 2)
            self.outcomes[nodeid], self.current = (outcome, float(seconds)), None
            if self.stop and outcome != "passed":
                self.halt()
                return True
        return False

    def halt(self):
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        os.close(self.fd)

    def kill(self):
        self.halt()
        return self.ended("timeout")

    def ended(self, why):
        left = [t for t in self.todo if t not in self.outcomes]
        if self.current in left:  # the test the child was running
            self.outcomes[self.current] = (why, time.perf_counter() - self.since)
            left.remove(self.current)
            if self.stop:
                return True
            if left:
                self.todo = left
                self.spawn()
                return False
        for nodeid in left:  # not collected
            self.outcomes[nodeid] = ("not run", 0.0)
        return True


def run_jobs(setup, copies, specs, then=lambda tag, outcomes: None):
    """Run (nodeids, prepare, tag, stop) specs, one at a time in each copy
    after prepare(copy); yield (tag, outcomes, seconds) as each ends, after
    queueing first the spec that then(tag, outcomes) returns."""
    pending, running = list(specs), {}
    while pending or running:
        for copy in copies:
            if copy not in running and pending:
                pending[0][1](copy)
                running[copy] = Job(setup, copy, pending.pop(0))
        wait = max(0.0, min(job.deadline() for job in running.values()) - time.perf_counter())
        ready, _, _ = select.select([job.fd for job in running.values()], [], [], wait)
        for copy, job in list(running.items()):
            if job.fd in ready:
                over = job.feed()
            elif time.perf_counter() > job.deadline():
                over = job.kill()
            else:
                continue
            if over:
                del running[copy]
                follow = then(job.tag, job.outcomes)
                if follow:
                    pending.insert(0, follow)
                yield job.tag, job.outcomes, time.perf_counter() - job.began


# -- the matrix -------------------------------------------------------------

def first_run(setup, copies):
    """The suite untraced in one copy (outcomes, seconds) and traced in another."""
    scratch = os.path.dirname(copies[0])
    site, trace_dir = os.path.join(scratch, "site"), os.path.join(scratch, "trace")
    os.makedirs(site)
    os.makedirs(trace_dir)
    with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE)

    def tracing(on):
        return lambda copy: setattr(setup, "trace", {"site": site, "dir": trace_dir}
                                    if on else None)
    tests = ["tests"]
    ran = {tag: outcomes for tag, outcomes, _ in run_jobs(
        setup, copies, [(tests, tracing(True), "traced", False),
                            (tests, tracing(False), "plain", False)])}
    with open(os.path.join(trace_dir, "main.json")) as fh:
        trace = json.load(fh)
    order = list(trace["tests"])
    lines = {t: {f: set(ls) for f, ls in trace["tests"][t].items()} for t in order}
    shared = {}  # a file's setup lines: a fixture may be set up for one test, used by all
    for t, got in trace["setup"].items():
        for f, ls in got.items():
            shared.setdefault(t.split("::")[0], {}).setdefault(f, set()).update(ls)
    for t in order:
        for f, ls in shared.get(t.split("::")[0], {}).items():
            lines[t].setdefault(f, set()).update(ls)
    traced = set()
    for name in os.listdir(trace_dir):
        if name != "main.json":
            test = order[int(name.split(".")[0])]
            traced.add(test)
            with open(os.path.join(trace_dir, name)) as fh:
                for f, ls in json.load(fh).items():
                    lines[test].setdefault(f, set()).update(ls)
    untraced = {t for t in trace["python_children"] if t not in traced}
    return order, ran["plain"], lines, trace, untraced


def preimport(modules, trees):
    """Import here, once for all children, what they import from outside the trees."""
    for name in modules:
        spec = importlib.util.find_spec(name) if name not in sys.modules else None
        origin = os.path.abspath(spec.origin) if spec and spec.origin else None
        if origin and not any(origin.startswith(tree + os.sep) for tree in trees):
            try:
                importlib.import_module(name)
            except Exception:
                pass


def write_matrix(path, order, broad, mutants):
    """One line per test and per mutant."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {SEED}, "broad": {json.dumps(broad)},\n"tests": [\n'
                 + ",\n".join(map(json.dumps, order)) + '],\n"mutants": [\n'
                 + ",\n".join(map(json.dumps, mutants)) + "]}\n")


def key(mutant):
    return tuple(mutant[k] for k in ("module", "function", "operator", "source", "mutant",
                                     "occurrence"))


def main() -> int:
    out = os.path.join(ROOT, "studies", "MUTANTS.json")
    scratch = os.path.join(ROOT, "bench_out", "mutants")
    shutil.rmtree(scratch, ignore_errors=True)
    copies = [os.path.join(scratch, f"w{k}") for k in range(JOBS)]
    for copy in copies:
        shutil.copytree(ROOT, copy, ignore=IGNORE)
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    import pytest  # noqa: F401 -- once here, not in every child

    began = time.perf_counter()
    setup = Setup()
    order, outcomes, lines, trace, untraced = first_run(setup, copies)
    broken = [t for t in order if outcomes.get(t, ("not run",))[0] != "passed"]
    if broken:
        print(f"error: {len(broken)} tests fail unmutated, first {broken[0]}", file=sys.stderr)
        return 1
    setup.times, setup.unknown = {t: outcomes[t][1] for t in order}, 0.0
    preimport(trace["modules"], [ROOT, scratch])

    package = os.path.join(ROOT, PACKAGE)
    base = os.path.dirname(os.path.join(copies[0], PACKAGE))
    by_line = {}
    for t in order:
        for f, ls in lines[t].items():
            for n in ls:
                by_line.setdefault((os.path.relpath(f, base), n), set()).add(t)
    at_import = {(os.path.relpath(f, base), n) for f, ls in trace["import"].items() for n in ls}
    reach = {t: sum(t in ts for ts in by_line.values()) for t in order}
    broad = [t for t in order if reach[t] > BROAD * len(by_line)]
    sources, found = {}, {}
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            module = os.path.relpath(os.path.join(dirpath, name), os.path.dirname(package))
            sources[module], found[module] = sites(os.path.join(dirpath, name))
    imports = {m: {n for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
                   for n in [node.module or ""] + [a.name for a in node.names]}
               for m, source in sources.items()}
    readers = {m: {n for n in sources if n == m or os.path.basename(
                   os.path.dirname(m) if m.endswith("__init__.py") else m[:-3]) in imports[n]}
               for m in sources}
    mutants, chosen = [], []
    for module, module_sites in found.items():
        seen = {}
        for site in module_sites:
            lo, hi = site.pop("lines")
            body = site.pop("body")
            span = {(module, n) for n in range(lo, hi + 1)}
            if span & at_import:  # a default is read in its body, else where imported
                span = ({(module, n) for n in range(body[0], body[1] + 1)} if body else
                        {line for line in by_line if line[0] in readers[module]})
            text = (site["function"], site["operator"], site["source"], site["mutant"])
            seen[text] = seen.get(text, -1) + 1
            mutants.append({"module": module, **site, "occurrence": seen[text]})
            chosen.append(untraced | set().union(*(by_line.get(line, ()) for line in span)))
    print(f"{len(mutants)} mutants, {len(order)} tests ({len(broad)} broad); first run "
          f"{time.perf_counter() - began:.0f} s", flush=True)

    def prepare(mutant):
        def write(copy):
            for module, source in sources.items():  # and undo the copy's last mutant
                target = os.path.join(copy, os.path.dirname(PACKAGE), module)
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(mutate(source, mutant["span"], mutant["mutant"])
                             if module == mutant["module"] else source)
        return write

    def then(tag, outcomes):  # the broad tests, when no narrow one kills
        k, tier = tag
        picked = [t for t in broad if t in chosen[k]]
        if tier == "narrow" and picked and all(o == "passed" for o, _ in outcomes.values()):
            return picked, prepare(mutants[k]), (k, "broad"), True
        return None

    index = {t: k for k, t in enumerate(order)}
    specs = []
    for k, (mutant, tests) in enumerate(zip(mutants, chosen)):
        narrow = [t for t in order if t in tests and t not in broad]
        first = (narrow, prepare(mutant), (k, "narrow"), False) if narrow else then((k, "narrow"), {})
        if first:
            specs.append(first)
        else:  # no test executes it
            mutant.update(seconds=0.0, ran=0, killed_by=[], limits={})
    done = len(mutants) - len(specs)
    for (k, tier), got, seconds in run_jobs(setup, copies, specs, then):
        mutant = mutants[k]
        killers = {t: o for t, (o, _) in got.items() if o != "passed"}
        mutant["seconds"] = round(mutant.get("seconds", 0.0) + seconds, 2)
        mutant["ran"] = mutant.get("ran", 0) + len(got)
        mutant["killed_by"] = sorted(mutant.get("killed_by", []) + [index[t] for t in killers])
        mutant["limits"] = {**mutant.get("limits", {}), **{
            str(index[t]): o for t, o in killers.items() if o != "failed"}}
        if tier == "narrow" and (killers or not set(broad) & chosen[k]) or tier == "broad":
            done += 1
            print(f"[{done}/{len(mutants)}] {mutant['module']}:{mutant['line']} "
                  f"{mutant['source']!r} -> {mutant['mutant']!r}: killed by "
                  f"{len(mutant['killed_by'])}", flush=True)
    old = {}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            old = {key(m): m for m in json.load(fh)["mutants"]}
    for mutant in mutants:
        del mutant["span"]
        reason = old.get(key(mutant), {}).get("reason")
        if not mutant["killed_by"] and reason:
            mutant["reason"] = reason
    write_matrix(out, order, [index[t] for t in broad], mutants)
    survivors = [m for m in mutants if not m["killed_by"]]
    bare = [m for m in survivors if not m.get("reason")]
    lost = [m for m in survivors if old.get(key(m), {}).get("killed_by")]
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed; "
          f"{len(survivors)} survive, {len(bare)} without a reason, {len(lost)} killed before; "
          f"{time.perf_counter() - began:.0f} s")
    for m in bare:
        print(f"{'lost kill' if m in lost else 'survivor'} {m['module']}:{m['line']}:{m['col']} "
              f"{m['function']} {m['source']!r} -> {m['mutant']!r}")
    shutil.rmtree(scratch, ignore_errors=True)
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
