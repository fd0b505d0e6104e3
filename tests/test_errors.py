"""Every typed error is reachable from the package namespace."""

import inspect

import qmaxent
import qmaxent.errors as errors


def test_every_error_class_is_exported():
    classes = [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, errors.QmaxentError) and obj.__module__ == errors.__name__]
    assert errors.FloatRangeExceeded in classes
    for cls in classes:
        assert getattr(qmaxent, cls.__name__) is cls
