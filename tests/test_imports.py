"""Every name a ``vtdis`` module imports at top level is used in it,
every private helper is used somewhere in the package, every public
function, class, method and module-level constant is used by the
package or the benchmark (named exemptions aside), every call the
benchmark's tracer wraps is defined where the tracer looks it up, every
option of the pipeline's configured calls is one the pipeline sets, no
function imports inside its body, the package imports nothing at
runtime but the standard library, numpy and itself, each particle system
builds its ``ComProjection`` in one place, each learned backend computes
its preconditioning once per pass, every Gaussian of both chains is drawn
and scored by ``StepKernel`` alone, the reverse mean, the mixture's
posterior pass and the standard normal draws each have one owner, and
importing the package pins glibc's heap thresholds, so that the
iterations of a repeated training run take no page faults.

Deleting code tends to leave its imports and helpers behind; these checks
find them with the standard library alone.  The runtime import check
keeps an undeclared dependency (scipy is a test dependency only) from
creeping back into ``src/vtdis``.  ``__init__.py`` holds the package
docstring and the heap pin and is checked like every other module;
``from __future__`` is skipped.  A private helper is a module-level
function or class, or a method, whose name starts with one underscore
and does not end with two (``__init__`` is not one); it counts as used
when its name is read as a ``Name`` or appears as an attribute anywhere
in ``src/vtdis``.  A public name counts as used when it is read so in
``src/vtdis`` or in ``bench/`` outside its self-tests, or is the
attribute a span of the tracer's ``SPANS`` wraps; assigning a constant
is no use of it.  A use whose owner is known, ``self.m`` in a method of
class C or ``C.m`` with C a class of the program, uses only the ``m`` of
C, its bases and its subclasses; ``obj.m`` on any other receiver uses
every class's ``m``.  One that only the tests use is API kept for them
alone, and is either deleted or listed in ``TEST_ONLY`` with its reason.
"""

import ast
import dataclasses
import importlib.util
import inspect
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from vtdis import denoisers as dn
from vtdis import pfode as pf
from vtdis import targets as tg
from vtdis import tuner as tu

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vtdis"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Top-level imported names that never appear as a ``Name`` node."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_modules_are_found():
    assert "tuner.py" in MODULES and "__init__.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_check_finds_a_stray_import():
    source = ("from __future__ import annotations\n"
              "import logging\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "x = np.zeros(1)\n"
              "@dataclass\nclass A:\n    y: int = 0\n")
    assert unused_imports(source) == ["field", "logging"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def definitions(source: str):
    """(qualified name, name) of each module-level function and class and
    of each method, in source order."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{n.name}", n.name) for n in node.body
                        if isinstance(n, ast.FunctionDef))


def private_definitions(source: str) -> list[str]:
    """Private module-level functions and classes, and private methods."""
    return [name for _, name in definitions(source) if _private(name)]


def constants(source: str):
    """(name, name) of each module-level constant: a plain name assigned
    at the top level, in source order."""
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        yield from ((t.id, t.id) for t in targets if isinstance(t, ast.Name))


def referenced_names(sources) -> set[str]:
    """Every ``Name`` read and attribute name in ``sources``; a
    definition itself, or the name a constant is assigned to, is
    neither."""
    refs = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
    return refs


@pytest.mark.parametrize("module", MODULES)
def test_no_orphaned_private_helper(module):
    refs = referenced_names((SRC / m).read_text(encoding="utf-8")
                            for m in MODULES)
    source = (SRC / module).read_text(encoding="utf-8")
    assert [n for n in private_definitions(source) if n not in refs] == []


def test_check_finds_an_orphaned_helper():
    source = ("def _used():\n    return 1\n"
              "def _orphan():\n    return _used()\n"
              "class A:\n    def __init__(self):\n        self._go()\n"
              "    def _go(self):\n        pass\n"
              "    def _stale(self):\n        pass\n")
    refs = referenced_names([source])
    assert [n for n in private_definitions(source) if n not in refs] == \
        ["_orphan", "_stale"]


# the program: the package and the benchmark, without its self-tests
PROGRAM = [SRC / m for m in MODULES] + sorted(
    p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))

# public names that only the tests use, each kept for a reason
TEST_ONLY = {
    "single_gaussian": "the fixture target with a closed-form optimum",
    "VectorDenoiser": "the learned backend of the learned-score bias oracle "
                      "and of the planned gmm10l workload",
}


def class_families(sources) -> dict[str, set[str]]:
    """Each class of ``sources`` by name, with its bases and subclasses
    there: a method looked up on one may be defined on any of them."""
    bases = {n.name: {getattr(b, "attr", getattr(b, "id", None))
                      for b in n.bases}
             for source in sources for n in ast.walk(ast.parse(source))
             if isinstance(n, ast.ClassDef)}
    up = {c: set() for c in bases}
    for c, seen in up.items():
        stack = list(bases[c])
        while stack:
            b = stack.pop()
            if b in bases and b not in seen:
                seen.add(b)
                stack.extend(bases[b])
    return {c: {c} | up[c] | {d for d in bases if c in up[d]} for c in bases}


def used_names(sources) -> set[str]:
    """Every ``Name`` read, and each attribute name: as ``C.m`` for every
    class C in the family of the attribute's known owner, else bare.  The
    attributes of the tracer's ``SPANS`` count so too, with the span's
    owner; no other string counts."""
    sources = list(sources)
    families = class_families(sources)

    def owner(node, cls):
        if isinstance(node, ast.Name) and node.id in ("self", "cls"):
            return cls
        name = getattr(node, "attr", getattr(node, "id", None))
        return name if name in families else None

    used = set()

    def use(node, cls, name):
        key = owner(node, cls)
        used.update([name] if key is None
                    else (f"{c}.{name}" for c in families[key]))

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            use(node.value, cls, node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for source in sources:
        tree = ast.parse(source)
        visit(tree, None)
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "SPANS"
                            for t in node.targets)):
                for span in node.value.elts:
                    if isinstance(span.elts[2], ast.Constant):
                        use(span.elts[1], None, span.elts[2].value)
    return used


def unreferenced_public(source: str, used: set[str]) -> list[str]:
    """Public module-level functions, classes and constants, and public
    methods, of ``source`` that ``used`` holds neither bare nor keyed
    by owner."""
    return [qual for qual, name in [*definitions(source), *constants(source)]
            if not name.startswith("_") and not {name, qual} & used]


def test_no_test_only_public_name():
    used = used_names(p.read_text(encoding="utf-8") for p in PROGRAM)
    found = {qual for m in MODULES for qual in unreferenced_public(
        (SRC / m).read_text(encoding="utf-8"), used)}
    assert found - TEST_ONLY.keys() == set()
    # an exemption whose name the program came to use is dropped
    assert TEST_ONLY.keys() - found == set()


def test_check_finds_a_test_only_public_name():
    source = ("LIMIT = 1\nSTALE: int = 2\n"
              "def used():\n    return LIMIT\n"
              "def orphan():\n    return used()\n"
              "def _helper():\n    pass\n"
              "def traced():\n    pass\n"
              "class A:\n    def __init__(self):\n        self.go()\n"
              "        self.check()\n"
              "    def go(self):\n        pass\n"
              "    def stale(self):\n        pass\n"
              "class B:\n    pass\n"
              "class C:\n    def go(self):\n        pass\n"
              "    def shared(self):\n        pass\n"
              "class D(A):\n    def check(self):\n        pass\n"
              "def stray():\n    pass\n"
              "def call(obj):\n    return obj.shared()\n"
              "SPANS = [('a.traced', mod, 'traced', None),\n"
              "         ('d.step', D, 'step', None)]\n"
              "RNG = derive_rng(0, 'stray')\n"
              "trace(SPANS, RNG, C, D, call)\n")
    # a string outside SPANS, such as a seed key, uses nothing, and
    # neither does the assignment of a constant.  A's self.go() uses A's
    # go and not C's, and its self.check() the check of its subclass D;
    # obj.shared(), on a receiver of no known class, uses every shared
    assert unreferenced_public(source, used_names([source])) == \
        ["orphan", "A.stale", "B", "C.go", "stray", "STALE"]
    # a span wraps the method of its owner's family
    assert {"D.step", "A.step"} <= used_names([source])


def untraceable(spans) -> list:
    """The ``(span, attr)`` of each span whose attribute is not in its
    owner's own namespace, where the tracer replaces it."""
    return [(name, attr) for name, owner, attr, _ in spans
            if attr not in vars(owner)]


def test_every_traced_name_is_in_its_owners_namespace(monkeypatch):
    # the tracer replaces ``owner.__dict__[attr]``; a name that moved to a
    # base class or another module would no longer be found there
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS and untraceable(tracing.SPANS) == []


def test_check_finds_a_traced_method_left_in_a_base_class():
    class Base:
        def log_density(self):
            pass

    class Bound(Base):
        log_density = Base.log_density

    class Inherits(Base):
        pass

    spans = [("bound", Bound, "log_density", None),
             ("inherited", Inherits, "log_density", None)]
    assert untraceable(spans) == [("inherited", "log_density")]



def callee(call: ast.Call) -> str | None:
    """The name a call is made by, alone or as a module attribute."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", None)


def keywords_passed(source: str, names) -> dict[str, set[str]]:
    """The keywords passed to each callee in ``names``, called by name or
    as a module attribute, anywhere in ``source``."""
    passed = {name: set() for name in names}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = callee(node)
            if name in passed:
                passed[name].update(k.arg for k in node.keywords if k.arg)
    return passed


def test_every_option_is_set_by_the_pipeline():
    # the benchmark's pipeline in bench/workloads.py is the one caller of
    # these four; an option it leaves at its default belongs in a constant
    options = {
        "TrainConfig": [f.name for f in dataclasses.fields(dn.TrainConfig)],
        "TunerConfig": [f.name for f in dataclasses.fields(tu.TunerConfig)],
        "OdeRunConfig": [f.name for f in dataclasses.fields(pf.OdeRunConfig)],
        "mcmc_sample": [
            p.name for p in inspect.signature(tg.mcmc_sample).parameters
            .values() if p.kind is inspect.Parameter.KEYWORD_ONLY],
    }
    passed = keywords_passed(
        (ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"),
        options)
    unset = {(callee, name) for callee, names in options.items()
             for name in names if name not in passed[callee]}
    assert unset == set()


def function_imports(source: str, module: str) -> set[tuple[str, str]]:
    """(module, qualified function) of every function whose body holds an
    import statement, nested functions included."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if any(isinstance(n, (ast.Import, ast.ImportFrom))
                       for n in ast.walk(child)):
                    found.add((module, name))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")

    visit(ast.parse(source), "")
    return found


def test_no_import_inside_a_function():
    found = set().union(*(
        function_imports((SRC / m).read_text(encoding="utf-8"), m)
        for m in MODULES))
    assert found == set()


def test_check_finds_an_import_in_a_method():
    source = ("import numpy as np\n"
              "def f():\n    return np.zeros(1)\n"
              "class A:\n    def g(self):\n"
              "        from os import path\n        return path\n")
    assert function_imports(source, "m.py") == {("m.py", "A.g")}


def top_level_packages(source: str) -> set[str]:
    """The top-level package of every import statement, at any depth; a
    relative import counts as ``vtdis``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("vtdis" if node.level else node.module.split(".")[0])
    return found


def test_runtime_imports_are_stdlib_numpy_or_vtdis():
    found = set().union(*(
        top_level_packages((SRC / m).read_text(encoding="utf-8"))
        for m in MODULES))
    assert found - sys.stdlib_module_names <= {"numpy", "vtdis"}


def test_check_finds_a_third_party_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "try:\n    from scipy.linalg import solve\n"
              "except ImportError:\n    solve = None\n"
              "from . import gaussians\n")
    found = top_level_packages(source)
    assert found - sys.stdlib_module_names == {"numpy", "scipy", "vtdis"}


def call_sites(source: str, name: str) -> set[str]:
    """The qualified name of the innermost function or class around each
    call of ``name`` (by name or as a module attribute), or ``<module>``
    for a call at top level."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and callee(child) == name:
                found.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def package_call_sites(name: str) -> set[tuple[str, str]]:
    """(module, scope) of every call of ``name`` in ``src/vtdis``."""
    return {(m, scope) for m in MODULES
            for scope in call_sites((SRC / m).read_text(encoding="utf-8"),
                                    name)}


def test_one_com_projection_per_particle_system():
    # a particle target and the radial backend each own one; every other
    # caller takes theirs (``getattr(..., "proj", None)``) or its argument
    assert package_call_sites("ComProjection") == {
        ("targets.py", "_PairSystem.proj"),
        ("denoisers.py", "RadialDenoiser.__init__")}


def test_one_preconditioning_per_network_pass():
    # each learned backend's one primal pass computes its coefficients
    # once and hands them to the tangent and gradient passes in the cache
    assert package_call_sites("precond_coeffs") == {
        ("denoisers.py", "VectorDenoiser._primal"),
        ("denoisers.py", "RadialDenoiser._primal")}


def test_every_gaussian_is_drawn_and_scored_by_step_kernel():
    # the forward chain, the terminal prior and the proposal are all
    # ``StepKernel``s: in the two modules that run the chains, every
    # normal is drawn and every Gaussian is scored by its methods alone
    def in_chains(name):
        return {(module, scope) for module, scope in package_call_sites(name)
                if module in ("diffusion.py", "pfode.py")}

    assert in_chains("normals") == {("diffusion.py", "StepKernel.sample")}
    assert in_chains("_log_norm") == {("diffusion.py", "StepKernel.sample")}
    # pfode's one density call is the target's
    assert in_chains("log_density") == {
        ("diffusion.py", "StepKernel.logpdf"), ("pfode.py", "ode_is_weights")}
    assert not any("LOG_2PI" in (SRC / m).read_text(encoding="utf-8")
                   for m in ("diffusion.py", "pfode.py"))
    # the forward pass streams to two consumers: the tuner's pool
    # statistics and the held-out bound's log weights
    assert package_call_sites("forward_residuals") == {
        ("tuner.py", "stats_batch"),
        ("metrics.py", "forward_log_weights")}
    # one scorer of a step's residuals besides the tuner's statistic matrix
    assert package_call_sites("stats") == {
        ("diffusion.py", "StepKernel.logpdf"),
        ("tuner.py", "stats_batch.keep")}


def test_one_owner_each_of_the_reverse_mean_posterior_and_normals():
    # every path centres its steps on ``_posterior_mean``, the one caller
    # of the denoiser in diffusion.py and so the one NaN check there
    assert package_call_sites("_posterior_mean") == {
        ("diffusion.py", "_reverse_steps"),
        ("diffusion.py", "forward_residuals"),
        ("diffusion.py", "recompute_log_densities")}
    assert {scope for module, scope in package_call_sites("denoise")
            if module == "diffusion.py"} == {"_posterior_mean"}
    # the analytic backend answers every query from one posterior pass
    assert package_call_sites("_gmm_posterior") == {
        ("denoisers.py", "AnalyticGmmScore._posterior")}
    # zero-CoM draws, MALA's start among them, come from ``eq.normals``;
    # the network's initial weights and the mixture's exact draws are the
    # only other standard normals
    assert package_call_sites("standard_normal") == {
        ("denoisers.py", "Mlp.__init__"), ("equivariant.py", "normals"),
        ("targets.py", "Gmm.sample")}


def test_check_finds_every_call_site():
    source = ("import numpy as np\nfrom m import C\n"
              "X = np.C(1)\n"
              "def f():\n    return C(2)\n"
              "class A:\n    y = C(4)\n    def g(self):\n"
              "        def h():\n            return np.C(3)\n"
              "        return h\n")
    assert call_sites(source, "C") == {"<module>", "f", "A", "A.g.h"}


# trains twice in a fresh process and prints how many of the second
# run's iterations took a minor page fault, counted around each call of
# ``_dsm_step``, which ``train_dsm`` looks up as a module global
TRAIN_TWICE = """
import resource
import numpy as np
from vtdis import denoisers as dn, equivariant as eq, targets as tg
faults = []
dsm_step = dn._dsm_step
def counted(*args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    loss = dsm_step(*args)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return loss
dn._dsm_step = counted
target = tg.LennardJones()
rng = np.random.default_rng(0)
data = eq.com_project(rng.standard_normal((256, target.dim)), target.proj)
model = dn.RadialDenoiser(13, 3, [32, 32], 1.0, rng)
config = dn.TrainConfig(iterations=30, batch_size=32, lr=3e-3, t_max=10.0)
for seed in range(2):
    faults.clear()
    dn.train_dsm(np.random.default_rng(seed), data, model, config)
print(sum(f > 0 for f in faults))
"""


@pytest.mark.skipif(sys.platform != "linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="the heap pin acts on glibc only")
def test_repeated_training_takes_no_page_faults():
    # unpinned, glibc unmaps or trims each freed mid-size work array and
    # faults it back in at the next iteration: every one of the 30 LJ-13
    # training iterations faults (627 minor faults each); pinned, none
    # does.  A one-off heap growth faults in one iteration only, so a few
    # are allowed
    env = dict(os.environ, PYTHONPATH=str(SRC.parent),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", TRAIN_TWICE], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) <= 3
