import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "production_rates.py"


def load_production_rates():
    spec = importlib.util.spec_from_file_location("production_rates", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("budget", ["nan", "-1", "0", "inf"])
def test_production_rates_rejects_bad_budget(budget, monkeypatch, capsys):
    module = load_production_rates()
    # the budget is parsed before any search starts; fail loudly if not
    monkeypatch.setattr(module, "run_order", lambda m, budget: pytest.fail("search ran"))
    with pytest.raises(SystemExit) as exc:
        module.main(["--budget", budget])
    assert exc.value.code == 2
    assert "finite and positive" in capsys.readouterr().err
