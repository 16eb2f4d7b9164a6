import sys
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).parent))

from ldbig import assemble, composefile, parse_compose

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def wordpress_text() -> str:
    return (DATA / "wordpress.yml").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def wordpress_model(wordpress_text):
    return parse_compose(wordpress_text)


@pytest.fixture(scope="session")
def wordpress_composite(wordpress_model):
    return assemble(wordpress_model)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(params=["libyaml", "pure"])
def yaml_loader(request, monkeypatch) -> str:
    """Run the test on the events of libyaml's parser and of PyYAML's
    pure-Python one, whichever ``parse_compose`` picked at import."""
    if request.param == "libyaml":
        if not yaml.__with_libyaml__:
            pytest.skip("PyYAML was built without libyaml")
        source = yaml.CSafeLoader
    else:
        source = yaml.SafeLoader
    monkeypatch.setattr(composefile, "_EventSource", source)
    return request.param
