"""The error model: seven exception classes, and every value the library
refuses raises ValidationError, which is also a ValueError."""

import ast
import inspect
from pathlib import Path

from phstab import errors

_SRC = Path(errors.__file__).parent


def test_errors_defines_the_seven_classes():
    classes = {name: cls for name, cls in vars(errors).items()
               if inspect.isclass(cls) and cls.__module__ == errors.__name__}
    assert sorted(classes) == ["InsufficientPrecision", "OutOfRange", "PhstabError",
                               "SingularMatrix", "TableExhausted", "ValidationError",
                               "VerificationFailed"]
    assert all(issubclass(cls, errors.PhstabError) for cls in classes.values())
    assert issubclass(errors.ValidationError, ValueError)


def test_no_library_module_raises_a_bare_value_or_type_error():
    # the CLI's argparse helpers may; every library refusal is a ValidationError
    bare = []
    for module in ("contfrac", "diophantine", "alpha_factory", "spectral", "rates", "phs",
                   "intervals"):
        for node in ast.walk(ast.parse((_SRC / f"{module}.py").read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    bare.append(f"{module}.py:{node.lineno} {exc.id}")
    assert bare == []
