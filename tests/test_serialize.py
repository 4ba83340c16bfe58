import math

import pytest

from holedtorus.serialize import dumps17, fmt17


def test_fmt17_refuses_nan():
    with pytest.raises(ValueError, match="^NaN has no place in serialized output$"):
        fmt17(math.nan)


def test_dumps17_refuses_what_json_cannot_hold():
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        dumps17(object())


def test_dumps17_writes_empty_containers_on_one_line():
    assert dumps17({}) == "{}"
    assert dumps17({"a": []}) == '{\n  "a": []\n}'
