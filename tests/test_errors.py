"""Every package error survives a pickle round trip with its type, message and
attributes: a Monte-Carlo worker process sends the exception it raised back
to the caller pickled."""
import inspect
import pickle

import pytest

from monostar import errors

CASES = [
    errors.MonostarError("base"),
    errors.EdgeListParseError(3, "bad"),
    errors.BudgetExceededError("too costly", cost=12, budget=10),
    errors.BudgetExceededError("no figures"),
    errors.InvalidParamsError("theta out of range"),
    errors.WorkerExitError("Monte-Carlo worker 7 exited with status 3 without a result"),
]


def test_every_error_class_is_covered():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__}
    assert classes == {type(exc) for exc in CASES}


@pytest.mark.parametrize("exc", CASES, ids=lambda exc: type(exc).__name__)
def test_pickle_round_trip(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_parse_error_message_and_line_number():
    exc = pickle.loads(pickle.dumps(errors.EdgeListParseError(3, "bad")))
    assert str(exc) == "line 3: bad"
    assert exc.line_number == 3
