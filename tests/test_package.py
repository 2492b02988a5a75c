"""The package's public surface: each module's ``__all__`` and the version."""

import re
from pathlib import Path

import pytest

import uvprim
from uvprim import field, ntcore, screening, verify


@pytest.mark.parametrize("module", [ntcore, field, screening, verify], ids=lambda m: m.__name__)
def test_every_public_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert uvprim.__version__ == re.search(r'^version = "([^"]+)"', text, re.M).group(1)
