import pytest

from intentd import topology
from intentd.fabric import Fabric
from intentd.intents import Controller
from intentd.rest import RestClient, RestServer
from intentd.topology import Topology, device_id, load_topology

D1, D2, D3, D4, D5 = (device_id(n) for n in range(1, 6))
HUB = device_id(9)

CHAIN3_DOCUMENT = {
    "devices": [
        {"id": D1, "ports": [1, 2]},
        {"id": D2, "ports": [1, 2]},
        {"id": D3, "ports": [1, 2]},
    ],
    "links": [
        {"src": f"{D1}/2", "dst": f"{D2}/1"},
        {"src": f"{D2}/2", "dst": f"{D3}/1"},
    ],
    "hosts": [
        {"id": "h1", "attach": f"{D1}/1"},
        {"id": "h2", "attach": f"{D3}/2"},
    ],
}


@pytest.fixture
def chain3() -> Topology:
    """d1 - d2 - d3 in a line; hosts on the two free end ports."""
    return load_topology(CHAIN3_DOCUMENT)


@pytest.fixture
def star() -> Topology:
    """a, b, c all linked to one hub; each keeps one free edge port."""
    return load_topology(
        {
            "devices": [
                {"id": D1, "ports": [1, 2]},
                {"id": D2, "ports": [1, 2]},
                {"id": D3, "ports": [1, 2]},
                {"id": HUB, "ports": [1, 2, 3]},
            ],
            "links": [
                {"src": f"{D1}/2", "dst": f"{HUB}/1"},
                {"src": f"{D2}/1", "dst": f"{HUB}/2"},
                {"src": f"{D3}/1", "dst": f"{HUB}/3"},
            ],
        }
    )


@pytest.fixture
def tree_searches(monkeypatch) -> list[str]:
    """The source device of every shortest-path tree search, counted through
    the module attribute that shortest_path calls."""
    sources = []
    search = topology._search_tree
    monkeypatch.setattr(
        topology, "_search_tree", lambda topo, src: sources.append(src) or search(topo, src)
    )
    return sources


@pytest.fixture
def installs(monkeypatch) -> list[str]:
    """The name of every fabric install call, in call order: `install_places`
    for a compiled batch, `install_copy` for a template hit (and then
    `install_rules` too, when either falls back to it)."""
    calls = []
    for name in ("install_rules", "install_places", "install_copy"):
        method = getattr(Fabric, name)

        def counted(self, *args, name=name, method=method):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(Fabric, name, counted)
    return calls


@pytest.fixture
def controller(chain3) -> Controller:
    return Controller(chain3)


@pytest.fixture
def rest(chain3):
    """(controller, client) pair around a live server on an ephemeral port."""
    ctrl = Controller(chain3)
    server = RestServer(ctrl, "127.0.0.1", 0).start()
    client = RestClient(server.host, server.port)
    yield ctrl, client
    client.close()
    server.stop()
