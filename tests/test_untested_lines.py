"""scripts/untested_lines.py on a tiny module with one dead branch."""

import importlib.util
import os
import textwrap
import threading

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "untested_lines.py")


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_exactly_the_dead_branch(tmp_path):
    script = load("untested_lines_script", SCRIPT)
    path = tmp_path / "tiny.py"
    path.write_text(textwrap.dedent('''\
        """A sign function and a caller, each run once."""


        def sign(x):
            if x < 0:
                return -1
            return 1


        def on_thread(out):
            out.append(sign(2))
        '''))

    def run():
        tiny = load("tiny_traced", str(path))
        out = [tiny.sign(1)]
        # a line reached only on another thread counts as run
        worker = threading.Thread(target=tiny.on_thread, args=(out,))
        worker.start()
        worker.join()
        assert out == [1, 1]

    assert script.untested_lines(str(tmp_path), run) == [(str(path), 6)]
