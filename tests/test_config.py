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
