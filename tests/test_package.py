import subtrop


def test_every_exported_name_resolves():
    assert len(set(subtrop.__all__)) == len(subtrop.__all__)
    for name in subtrop.__all__:
        getattr(subtrop, name)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from subtrop import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(subtrop.__all__)


def test_cli_imports_no_dataclasses_or_inspect():
    # pytest itself imports both, so only a fresh interpreter can tell; -S keeps a
    # site-packages .pth file from importing them first
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    example = str(root / "tests" / "data" / "example2.spp")
    script = (
        "import sys\n"
        "import subtrop.cli\n"
        f"code = subtrop.cli.main(['decide', {example!r}, '--check', '--format', 'json'])\n"
        "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stderr == ""
    assert result.stdout.splitlines() == ['{"status": "sat", "n": [-5, -4]}', "0 []"]
