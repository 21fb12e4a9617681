"""Fragment placement across administrative domains (Section 4.5).

"To maximize the survivability of archival copies, we identify and rank
administrative domains by their reliability and trustworthiness.  We
avoid dispersing all of our fragments to locations that have a high
correlated probability of failure."

Domains group servers that fail together (one company, one region).
:class:`FragmentPlacer` spreads an object's fragments so that no domain
holds more than the losable budget would allow, preferring reliable
domains, and never placing two copies of the same fragment on one server.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.network import NodeId
from repro.telemetry import coalesce


class PlacementError(RuntimeError):
    pass


@dataclass
class AdministrativeDomain:
    """A failure-correlated group of servers with a reliability rank."""

    name: str
    servers: list[NodeId]
    reliability: float = 0.9  # P(domain healthy); used for ranking

    def __post_init__(self) -> None:
        if not 0 < self.reliability <= 1:
            raise PlacementError(
                f"reliability must be in (0, 1], got {self.reliability}"
            )
        if not self.servers:
            raise PlacementError(f"domain {self.name!r} has no servers")


@dataclass
class PlacementPlan:
    """Fragment index -> server assignment for one archival object."""

    assignments: dict[int, NodeId] = field(default_factory=dict)

    def servers(self) -> list[NodeId]:
        return list(self.assignments.values())


class FragmentPlacer:
    """Plans dispersal of n fragments over ranked domains."""

    def __init__(
        self, domains: list[AdministrativeDomain], telemetry=None
    ) -> None:
        if not domains:
            raise PlacementError("need at least one domain")
        names = [d.name for d in domains]
        if len(set(names)) != len(names):
            raise PlacementError("duplicate domain names")
        self.domains = sorted(domains, key=lambda d: -d.reliability)
        self.telemetry = coalesce(telemetry)

    def total_capacity(self) -> int:
        return sum(len(d.servers) for d in self.domains)

    def plan(self, fragment_count: int, max_fraction_per_domain: float = 0.5) -> PlacementPlan:
        """Assign fragments to servers, bounding per-domain concentration.

        ``max_fraction_per_domain`` caps the share of fragments any one
        domain may hold, so a whole-domain failure never costs more than
        that share (the anti-correlation rule).  Round-robins across
        domains in reliability order, one server per fragment.
        """
        if fragment_count < 1:
            raise PlacementError("need at least one fragment")
        if not 0 < max_fraction_per_domain <= 1:
            raise PlacementError("max_fraction_per_domain must be in (0, 1]")
        if fragment_count > self.total_capacity():
            raise PlacementError(
                f"{fragment_count} fragments exceed capacity "
                f"{self.total_capacity()}"
            )
        per_domain_cap = max(1, int(fragment_count * max_fraction_per_domain))
        if per_domain_cap * len(self.domains) < fragment_count:
            raise PlacementError(
                "per-domain cap too tight for fragment count; add domains "
                "or raise max_fraction_per_domain"
            )
        tel = self.telemetry
        with tel.span("archival.place", fragments=fragment_count):
            plan = PlacementPlan()
            domain_use = {d.name: 0 for d in self.domains}
            server_cursors = {d.name: 0 for d in self.domains}
            fragment = 0
            while fragment < fragment_count:
                placed_this_round = False
                for domain in self.domains:
                    if fragment >= fragment_count:
                        break
                    if domain_use[domain.name] >= per_domain_cap:
                        continue
                    cursor = server_cursors[domain.name]
                    if cursor >= len(domain.servers):
                        continue
                    plan.assignments[fragment] = domain.servers[cursor]
                    server_cursors[domain.name] = cursor + 1
                    domain_use[domain.name] += 1
                    fragment += 1
                    placed_this_round = True
                if not placed_this_round:
                    raise PlacementError(
                        "placement deadlock: caps and capacity prevent dispersal"
                    )
        if tel.enabled:
            tel.count("archival_fragments_placed_total", fragment_count)
        return plan

    def domain_of(self, server: NodeId) -> AdministrativeDomain | None:
        for domain in self.domains:
            if server in domain.servers:
                return domain
        return None

    def worst_case_loss(self, plan: PlacementPlan) -> int:
        """Fragments lost if the single worst-placed domain fails whole."""
        per_domain: dict[str, int] = {}
        for server in plan.servers():
            domain = self.domain_of(server)
            if domain is not None:
                per_domain[domain.name] = per_domain.get(domain.name, 0) + 1
        return max(per_domain.values(), default=0)
