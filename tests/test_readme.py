"""The README's documented examples run against the current library."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import graphclean
from graphclean.cli import parse_args

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README.name} (## Library)", "exec"), {})
    accuracy = float(capsys.readouterr().out)
    assert 0.0 <= accuracy <= 1.0


def test_cli_examples_parse(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    shell = "".join(re.findall(r"```sh\n(.*?)```", section, re.S)).replace("\\\n", " ")
    monkeypatch.chdir(tmp_path)
    heredoc = re.search(r"cat > exp\.cfg <<EOF\n(.*?)EOF\n", shell, re.S).group(1)
    Path("exp.cfg").write_text(heredoc, encoding="utf-8")
    parsed = [parse_args(shlex.split(line)[1:])
              for line in shell.splitlines() if line.startswith("graphclean ")]
    assert [args.command for args in parsed] == [
        "synth", "attack", "denoise", "train", "pipeline", "sweep", "pipeline"]
    from_file = parsed[-1]
    assert (from_file.kind, from_file.rate, from_file.max_iters, from_file.repetitions,
            from_file.seed, from_file.beta) == ("heterophilic", 0.25, 200, 10, 7, 1.0)


def test_dotted_names_exist():
    # a backticked dotted name, such as `SplitMix64.choose`, whose first part
    # is the package, one of its modules or a name it exports must resolve;
    # file names (`edges.csv`) and placeholders (`section.key`) are skipped
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    scope = {name: value for name, value in vars(graphclean).items()
             if not name.startswith("_")}
    scope["graphclean"] = graphclean
    for module in pkgutil.iter_modules(graphclean.__path__):
        scope[module.name] = importlib.import_module(f"graphclean.{module.name}")
    names = [name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\(.*?\))?`", text)
             if name.split(".")[0] in scope
             and name.rsplit(".", 1)[1] not in {"csv", "json", "py", "md", "cfg"}]
    assert {"SplitMix64.choose", "pipeline.apply_attack"} <= set(names)
    for name in names:
        first, *rest = name.split(".")
        obj = scope[first]
        for part in rest:
            assert hasattr(obj, part), f"README names `{name}`, which does not exist"
            obj = getattr(obj, part)
