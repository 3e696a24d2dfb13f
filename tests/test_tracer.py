"""The benchmark's tracer binds every function that perfbench/run.py traces.

A traced function that is deleted or renamed would otherwise fail only a
``--trace 1`` benchmark run, with a KeyError.  The test builds the tracer
over the names of ``PER_LAYER``, installs and uninstalls it, and checks that
every binding it patched is restored.  It reads perfbench/ and writes nothing.
"""

import importlib
import importlib.util
import pathlib

import sparsefit

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(modules, commands):
    """Every module-level binding and click callback the tracer may patch."""
    out = {(mod.__name__, attr): obj for mod in modules for attr, obj in vars(mod).items()}
    out.update({("callback", cmd.name): cmd.callback for cmd in commands})
    return out


def test_tracer_installs_over_every_traced_name():
    run, tracer = _load("run"), _load("tracer")
    names = {metric.rpartition(".")[0] for metric in run.PER_LAYER}
    modules = [sparsefit] + [importlib.import_module(f"sparsefit.{mod}")
                             for mod in sorted({name.partition(".")[0] for name in names})]
    commands = [sparsefit.cli.main.commands[name.partition(".")[2]]
                for name in sorted(names) if name.startswith("cli.")]
    before = _bindings(modules, commands)
    t = tracer.Tracer(modules, names)
    t.install()
    try:
        during = _bindings(modules, commands)
        for name in names:
            module, _, attr = name.partition(".")
            key = ("callback", attr) if module == "cli" else (f"sparsefit.{module}", attr)
            assert during[key] is not before[key], f"{name} is not wrapped"
        assert set(t.per_layer(run.PER_LAYER)) == set(run.PER_LAYER)
    finally:
        t.uninstall()
    after = _bindings(modules, commands)
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())
