"""The public API: every name a module exports resolves, and the names
taken out of the API are exported nowhere."""

import dataclasses
import importlib

import pytest

MODULES = ("sdnfilt", "sdnfilt.cli", "sdnfilt.filters", "sdnfilt.graphs",
           "sdnfilt.io", "sdnfilt.preconditioners", "sdnfilt.scenarios",
           "sdnfilt.sdn", "sdnfilt.solvers")

REMOVED = ("AgentState", "_Agents", "DiagonalPreconditioner", "geodesic_width",
           "write_filter_csv", "write_signal_csv", "iteration_matrix", "compose",
           "normalized_filter", "Round")

REMOVED_MEMBERS = {
    "sdnfilt.sdn.SdnNetwork": ("agents", "_agent", "expected_messages_per_exchange",
                               "max_message_distance"),
    "sdnfilt.sdn.MessageLog": ("values", "index", "count", "kind"),
    "sdnfilt.filters.GraphFilter": ("from_dense", "to_dense", "entry", "T", "entries",
                                    "__sub__", "from_entries", "identity", "__add__",
                                    "scaled", "_check_same_graph"),
    "sdnfilt.filters.Signal": ("norm",),
    "sdnfilt.filters.SpectralEstimate": ("fallback",),
    "sdnfilt.graphs.Graph": ("degree",),
}


def exported(module):
    """The module's __all__, or else every public name it binds."""
    names = getattr(module, "__all__", None)
    return names if names is not None else [n for n in vars(module) if not n.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    names = exported(module)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_gone(name):
    module = importlib.import_module(name)
    assert [n for n in REMOVED if hasattr(module, n) or n in exported(module)] == []


@pytest.mark.parametrize("owner", sorted(REMOVED_MEMBERS))
def test_removed_members_gone(owner):
    module, _, name = owner.rpartition(".")
    cls = getattr(importlib.import_module(module), name)
    assert [m for m in REMOVED_MEMBERS[owner] if hasattr(cls, m)] == []


def test_solver_config_fields():
    from sdnfilt.solvers import SolverConfig

    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["method", "max_iter"]
