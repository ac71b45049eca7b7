"""The settable options of the public API: every defaulted parameter of a
public function defined in an ``smplab`` module. An option added or removed
shows here first, so the change that makes it has to say so."""

import importlib
import inspect
import pkgutil

import smplab

OPTIONS = [
    "smplab.cli.main(argv)",
    "smplab.evaluate.adap_mc(workers)",
    "smplab.evaluate.alg_mc(workers)",
    "smplab.families.max_rank(weights)",
    "smplab.instances.gen_random_instance(params)",
    "smplab.serialize.serialize_report(timings)",
    "smplab.verify.check_encoding(seed)",
    "smplab.verify.check_encoding(set_samples)",
]


def test_defaulted_parameters_of_public_functions():
    found = []
    for info in pkgutil.iter_modules(smplab.__path__):
        module = importlib.import_module(f"smplab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            found += [
                f"{module.__name__}.{name}({p.name})"
                for p in inspect.signature(obj).parameters.values()
                if p.default is not inspect.Parameter.empty
            ]
    assert sorted(found) == OPTIONS
