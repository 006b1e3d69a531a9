"""The autouse leak guards of ``conftest.py`` see what they should."""

import os
import subprocess

import pytest


def test_child_listing_sees_a_running_child_and_skips_an_exited_one(
        running_children):
    if running_children() is None:
        pytest.skip("the kernel does not list child processes")
    with subprocess.Popen(["sleep", "30"]) as running, \
            subprocess.Popen(["true"]) as exited:
        try:
            # Wait for the second child without reaping it: it stays a
            # child of this process, in state Z.
            os.waitid(os.P_PID, exited.pid, os.WEXITED | os.WNOWAIT)
            children = running_children()
            assert running.pid in children
            assert exited.pid not in children
        finally:
            running.kill()
