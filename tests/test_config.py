import json

import pytest

from sweatauth.config import builtin_experiment, load_experiment
from sweatauth.errors import ConfigurationError

# resolved-config hashes of the packaged experiments; a change here changes
# every artifact that records config_hash
BUILTIN_HASHES = {
    "identity": "4ebc971f40496666",
    "sex-separation": "8eedda62014a7ea8",
    "sex-separation-null": "e97119f9eb739f49",
}


@pytest.mark.parametrize("name", sorted(BUILTIN_HASHES))
def test_builtin_config_hash_is_pinned(name):
    cfg = load_experiment(f"builtin:{name}")
    assert cfg.config_hash == BUILTIN_HASHES[name]
    assert cfg.raw["name"] == name


def test_unknown_builtin_lists_available():
    with pytest.raises(ConfigurationError) as exc:
        builtin_experiment("no-such-experiment")
    msg = str(exc.value)
    assert "no-such-experiment" in msg
    for name in BUILTIN_HASHES:
        assert repr(name) in msg


# ------------------------------------------------------------------ schema walker

from sweatauth.config import (AUTH, EXPERIMENT, PARAMS, _integer, _list, _number,  # noqa: E402
                              _object, _string, _walk, auth_setting, default_params_dict)

TABLE = _object({
    "rate": _number(low=0, strict=True, required=True),
    "count": _integer(low=1),
    "name": _string(low=1),
    "items": _list(_object({"x": _number()})),
    "rows": _list(_list(_number())),
    "map": _object(_number(low=0)),
})


@pytest.mark.parametrize("value, message", [
    ({"rate": 1.0, "rat": 1.0}, "top.rat: unknown key"),
    ({"count": 2}, "top.rate: required key is missing"),
    ([], "top: not an object: []"),
    ({"rate": True}, "top.rate: not a number: True"),
    ({"rate": "1.0"}, "top.rate: not a number: '1.0'"),
    ({"rate": None}, "top.rate: not a number: None"),
    ({"rate": 1.0, "count": 2.0}, "top.count: not an integer: 2.0"),
    ({"rate": 1.0, "count": False}, "top.count: not an integer: False"),
    ({"rate": 1.0, "count": "2"}, "top.count: not an integer: '2'"),
    ({"rate": 0}, "top.rate: must be finite and > 0, got 0"),
    ({"rate": -1e-300}, "top.rate: must be finite and > 0, got -1e-300"),
    ({"rate": 1.0, "count": 0}, "top.count: must be finite and >= 1, got 0"),
    ({"rate": 1.0, "map": {"a": -0.5}}, "top.map.a: must be finite and >= 0, got -0.5"),
    (json.loads('{"rate": 1e400}'), "top.rate: must be finite and > 0, got inf"),
    (json.loads('{"rate": NaN}'), "top.rate: must be finite and > 0, got nan"),
    (json.loads('{"rate": 1.0, "rows": [[1.0, -Infinity]]}'),
     "top.rows[0][1]: must be finite, got -inf"),
    ({"rate": 1.0, "name": ""}, "top.name: not a non-empty string: ''"),
    ({"rate": 1.0, "name": 7}, "top.name: not a non-empty string: 7"),
    ({"rate": 1.0, "items": {"x": 1}}, "top.items: not a list: {'x': 1}"),
    ({"rate": 1.0, "items": [{"x": 1}, {"x": "y"}]}, "top.items[1].x: not a number: 'y'"),
    ({"rate": 1.0, "items": [{"x": 1}, {"y": 1}]}, "top.items[1].y: unknown key"),
    ({"rate": 1.0, "map": {"a": 1, "b": {"c": 1}}}, "top.map.b: not a number: {'c': 1}"),
    ({"rate": 1.0, "map": []}, "top.map: not an object: []"),
], ids=["unknown-key", "missing-key", "not-an-object", "true-number", "numeric-string",
        "null-number", "float-integer", "false-integer", "numeric-string-integer",
        "strict-bound-at-low", "strict-bound-below-low", "bound-below-low", "map-value-below-low",
        "overflowing-number", "nan", "negative-infinity-in-nested-list", "empty-string",
        "number-for-string", "object-for-list", "list-item-key", "list-item-unknown-key",
        "map-value", "list-for-map"])
def test_walker_reports_the_first_violation_with_its_path(value, message):
    with pytest.raises(ConfigurationError) as exc:
        _walk(value, TABLE, "top")
    assert str(exc.value) == message


def test_walker_refuses_integers_beyond_the_float_range():
    value = json.loads('{"rate": 1, "count": 1' + "0" * 309 + "}")
    with pytest.raises(ConfigurationError, match=r"^top\.count: must be finite and >= 1, got 10+$"):
        _walk(value, TABLE, "top")


def test_walker_accepts_values_at_their_bounds_and_leaves_them_alone():
    value = {"rate": 5e-324, "count": 1, "name": "a", "items": [{}, {"x": -1}],
             "rows": [[], [0.0]], "map": {"a": 0, "b": 1e308}}
    before = json.dumps(value)
    _walk(value, TABLE, "top")
    assert json.dumps(value) == before


def test_walker_paths_through_nested_maps_and_the_top_level():
    params = default_params_dict()
    params["enzymes"]["ALT"]["km"]["Ala"] = 0
    with pytest.raises(ConfigurationError, match=r"^params\.enzymes\.ALT\.km\.Ala: must be "
                                                 r"finite and > 0, got 0$"):
        _walk(params, PARAMS, "params")
    with pytest.raises(ConfigurationError, match="^nmae: unknown key$"):
        _walk({"nmae": "x"}, EXPERIMENT, "")
    with pytest.raises(ConfigurationError, match=r"^cohort\.groups\[1\]\.seed: required key"):
        _walk({"cohort": {"groups": [{"name": "a", "n": 1, "seed": 1}, {"name": "b", "n": 1}],
                          "schedule": {"t0": 0, "tau": 1, "steps": 1}}}, EXPERIMENT, "")


def test_auth_defaults_come_from_the_auth_table():
    assert {key: auth_setting({}, key) for key in AUTH.of if key not in ("k_reg", "genuine_group",
                                                                          "impostor_group")} == {
        "mode": "group", "accumulate_k": 10, "lambda": 1e-3, "score_channel": 0,
        "accept_thr": 3.0, "reject_thr": -9.0, "drift_margin": 0.5}
    auth = {"k_reg": 2, "lambda": 0.5}
    assert auth_setting(auth, "lambda") == 0.5
    assert auth == {"k_reg": 2, "lambda": 0.5}
