"""Biocatalytic cascade networks and their mass-action integration.

A cascade is a list of irreversible enzymatic steps with Michaelis-Menten
saturation per substrate (factors multiply for multi-substrate steps) and
no product inhibition. The catalogued cascade kinds wire the single- and
multi-analyte assays: transaminase and dehydrogenase front ends feeding
chromogenic, luminescent, or peroxide-producing reporter branches.

Integration is classical fixed-step RK4 with a non-negativity guard
(step halving down to dt * 2**-20, then an error). Species flagged as
buffered (aerated oxygen by default) are held constant by zeroing their
stoichiometry rows; the conserved-moiety analysis operates on that same
effective matrix, so reported invariants are exactly what the integrator
preserves.
``simulate_batch`` integrates a batch of rows of one network, or of a
``CascadeUnion`` of networks side by side as one block-diagonal system, and
keeps each observed signal (a block's species or a step's rate) as its
endpoints and, when asked for, the sums its least-squares slope needs;
``simulate`` is a one-row batch that records every species at every grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _kernels
from .errors import ConfigurationError, IntegrationError

class CascadeKind(str, Enum):
    ALT_LDH = "AltLdh"
    ALT_POX_HRP = "AltPoxHrp"
    GLDH_A = "GldhA"
    GLDH_B = "GldhB"
    GLDH_C = "GldhC"
    ALA_GLU = "AlaGlu"
    ASP_GLU = "AspGlu"
    ALA_ASP_GLU = "AlaAspGlu"


@dataclass
class EnzymaticStep:
    """One irreversible enzymatic conversion.

    Rate = kcat * e_total * prod_i s_i / (km_i + s_i) over the substrates;
    stoichiometric coefficients scale consumption/production, not saturation.
    """

    enzyme: str
    substrates: list  # [(species, coefficient), ...]
    products: list
    kcat: float
    km: dict  # species -> µM
    e_total: float

    def __post_init__(self):
        if not self.kcat > 0:
            raise ConfigurationError(f"{self.enzyme}: kcat must be > 0")
        if self.e_total < 0:
            raise ConfigurationError(f"{self.enzyme}: e_total must be >= 0")
        for sp, coef in self.substrates + self.products:
            if not (isinstance(coef, int) and coef > 0):
                raise ConfigurationError(f"{self.enzyme}: coefficient for {sp} must be a positive integer")
        for sp, _ in self.substrates:
            if sp not in self.km:
                raise ConfigurationError(f"{self.enzyme}: missing Km for substrate {sp}")
            if not self.km[sp] > 0:
                raise ConfigurationError(f"{self.enzyme}: Km for {sp} must be > 0")

    @property
    def vmax(self) -> float:
        return self.kcat * self.e_total


def mm_rate(s: float, kcat: float, e_total: float, km: float) -> float:
    """Single-substrate Michaelis-Menten rate kcat * e_total * s / (km + s)."""
    if not km > 0:
        raise ConfigurationError("km must be > 0")
    s = max(s, 0.0)
    return kcat * e_total * s / (km + s)


@dataclass
class EnzymeParams:
    kcat: float
    e_total: float
    km: dict


@dataclass
class KineticParams:
    """Per-enzyme constants plus assay reagent loadings and optics."""

    enzymes: dict               # code -> EnzymeParams
    reagents: dict = field(default_factory=dict)   # species -> µM in the assay mix
    buffered: tuple = ("O2",)   # species held constant during integration
    optics: dict = field(default_factory=dict)
    gains: dict = field(default_factory=dict)
    path_length_cm: float = 1.0

    @classmethod
    def from_dict(cls, raw: dict) -> "KineticParams":
        """Parameters of a params file with its table's defaults, from config.load_experiment."""
        enzymes = {code: EnzymeParams(kcat=float(entry["kcat"]), e_total=float(entry["e_total"]),
                                      km={k: float(v) for k, v in entry["km"].items()})
                   for code, entry in raw.get("enzymes", {}).items()}
        return cls(enzymes=enzymes, buffered=tuple(raw["buffered"]),
                   reagents={name: float(value) for name, value in raw.get("reagents", {}).items()},
                   optics=raw.get("optics", {}), gains=raw.get("gains", {}),
                   path_length_cm=float(raw["path_length_cm"]))


# Wiring catalogue: (enzyme, substrates, products) per step, plus which
# species are sample inputs, measured reporters, and assay-mix reagents.
_ALT = ("ALT", [("Ala", 1), ("KTG", 1)], [("Pyr", 1), ("Glu", 1)])
_AST = ("AST", [("Asp", 1), ("KTG", 1)], [("OAC", 1), ("Glu", 1)])
_GLDH = ("GlDH", [("Glu", 1), ("NADplus", 1)], [("KTG", 1), ("NH3", 1), ("NADH", 1)])
_GLOX = ("GLOx", [("Glu", 1), ("O2", 1)], [("H2O2", 1)])
_HRP_ABTS = ("HRP", [("H2O2", 1), ("ABTS", 1)], [("ABTSox", 1)])

_WIRING = {
    CascadeKind.ALT_LDH: dict(
        steps=[_ALT, ("LDH", [("Pyr", 1), ("NADH", 1)], [("Lac", 1), ("NADplus", 1)])],
        inputs=["Ala"], reporters=["NADH"], reagents=["KTG", "NADH"],
    ),
    CascadeKind.ALT_POX_HRP: dict(
        steps=[_ALT, ("POx", [("Pyr", 1), ("O2", 1)], [("H2O2", 1)]), _HRP_ABTS],
        inputs=["Ala"], reporters=["ABTSox"], reagents=["KTG", "O2", "ABTS"],
    ),
    CascadeKind.GLDH_A: dict(
        steps=[_GLDH],
        inputs=["Glu"], reporters=["NADH"], reagents=["NADplus"],
    ),
    CascadeKind.GLDH_B: dict(
        steps=[_GLDH, ("PMS", [("NADH", 1), ("NBT", 1)], [("NADplus", 1), ("Formazan", 1)])],
        inputs=["Glu"], reporters=["Formazan"], reagents=["NADplus", "NBT"],
    ),
    CascadeKind.GLDH_C: dict(
        steps=[_GLDH,
               ("NADHox", [("NADH", 1), ("O2", 1)], [("NADplus", 1), ("H2O2", 1)]),
               ("HRP", [("H2O2", 1), ("Luminol", 1)], [("LuminolOx", 1)])],
        inputs=["Glu"], reporters=["LuminolOx", "H2O2"],
        reagents=["NADplus", "O2", "Luminol"],
    ),
    CascadeKind.ALA_GLU: dict(
        steps=[_ALT, _GLOX, _HRP_ABTS],
        inputs=["Ala", "Glu"], reporters=["ABTSox"], reagents=["KTG", "O2", "ABTS"],
    ),
    CascadeKind.ASP_GLU: dict(
        steps=[_AST, _GLOX, _HRP_ABTS],
        inputs=["Asp", "Glu"], reporters=["ABTSox"], reagents=["KTG", "O2", "ABTS"],
    ),
    CascadeKind.ALA_ASP_GLU: dict(
        steps=[_ALT, _AST, _GLOX, _HRP_ABTS],
        inputs=["Ala", "Asp", "Glu"], reporters=["ABTSox"],
        reagents=["KTG", "O2", "ABTS"],
    ),
}
# every species that some catalogued cascade wires
WIRED_SPECIES = frozenset(species for wiring in _WIRING.values()
                          for _, subs, prods in wiring["steps"] for species, _ in subs + prods)


@dataclass
class CascadeNetwork:
    """A cascade's steps and the facts that follow from them.

    ``species`` lists the inputs, then each species in the order a step
    first uses it (substrates before products); ``stoichiometry`` is
    computed from the steps, and ``buffered`` keeps only species of the
    network.
    """

    kind: CascadeKind
    steps: list              # list[EnzymaticStep]
    input_species: list
    reporter_species: list
    buffered: frozenset = frozenset()
    assay_mix: dict = field(default_factory=dict)  # species -> µM initial reagents
    species: list = field(init=False)  # names, fixed order
    _compiled: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.species = list(dict.fromkeys(
            self.input_species + [sp for st in self.steps for sp, _ in st.substrates + st.products]))
        self.buffered = frozenset(self.buffered).intersection(self.species)
        for sp in self.reporter_species:
            if sp not in self.species:
                raise ConfigurationError(f"{sp} not among network species")

    def index(self, name: str) -> int:
        try:
            return self.species.index(name)
        except ValueError:
            raise KeyError(f"species {name!r} not in {self.kind.value} network") from None

    @property
    def stoichiometry(self) -> np.ndarray:
        """[n_species, n_steps]: +coefficient of each product, -coefficient of each substrate."""
        S = np.zeros((len(self.species), len(self.steps)))
        for j, st in enumerate(self.steps):
            for sp, coef in st.substrates:
                S[self.index(sp), j] -= coef
            for sp, coef in st.products:
                S[self.index(sp), j] += coef
        return S

    @property
    def effective_stoichiometry(self) -> np.ndarray:
        """Stoichiometry with buffered species rows zeroed (what is integrated)."""
        eff = self.stoichiometry
        for sp in self.buffered:
            eff[self.index(sp), :] = 0.0
        return eff

    def compiled(self):
        """Flat-array encoding consumed by the integration kernels."""
        if self._compiled is None:
            st_dense = self.effective_stoichiometry.T.copy()  # [n_rxn, n_species]
            vmax = np.array([st.vmax for st in self.steps])
            sub_idx, sub_km, sub_off = [], [], [0]
            for st in self.steps:
                for sp, _ in st.substrates:
                    sub_idx.append(self.index(sp))
                    sub_km.append(st.km[sp])
                sub_off.append(len(sub_idx))
            self._compiled = (
                st_dense,
                vmax,
                np.asarray(sub_idx, dtype=np.int64),
                np.asarray(sub_km, dtype=np.float64),
                np.asarray(sub_off, dtype=np.int64),
            )
        return self._compiled

    def init_vector(self, init: dict) -> np.ndarray:
        """Assay mix plus caller overrides, as a dense state vector."""
        c0 = np.zeros(len(self.species))
        for sp, v in self.assay_mix.items():
            c0[self.index(sp)] = v
        for sp, v in init.items():
            if sp not in self.species:
                raise ConfigurationError(f"init species {sp!r} not in {self.kind.value} network")
            c0[self.index(sp)] = float(v)
        if np.any(c0 < 0):
            raise ConfigurationError("initial concentrations must be >= 0")
        return c0


def build_cascade(kind, params: KineticParams) -> CascadeNetwork:
    """Instantiate one of the catalogued cascade kinds with given parameters.

    Raises ValueError for an unknown kind, and ConfigurationError when an enzyme
    of the kind has no entry in params (or lacks a Km for one of its substrates).
    """
    kind = CascadeKind(kind)
    wiring = _WIRING[kind]
    steps = []
    for enzyme, subs, prods in wiring["steps"]:
        if enzyme not in params.enzymes:
            raise ConfigurationError(f"no kinetic parameters for enzyme {enzyme!r}")
        ep = params.enzymes[enzyme]
        steps.append(EnzymaticStep(enzyme=enzyme, substrates=list(subs), products=list(prods),
                                   kcat=ep.kcat, km=dict(ep.km), e_total=ep.e_total))
    assay_mix = {sp: params.reagents[sp] for sp in wiring["reagents"] if sp in params.reagents}
    return CascadeNetwork(kind=kind, steps=steps, input_species=list(wiring["inputs"]),
                          reporter_species=list(wiring["reporters"]),
                          buffered=frozenset(params.buffered), assay_mix=assay_mix)


@dataclass
class KineticsTrace:
    times: np.ndarray
    concentrations: np.ndarray  # [n_times, n_species]
    species_names: list

    def column(self, species: str) -> np.ndarray:
        if species not in self.species_names:
            raise KeyError(f"species {species!r} not in trace")
        return self.concentrations[:, self.species_names.index(species)]


def step_count(t_g, dt) -> int:
    """RK4 steps of dt from 0 to the gate time t_g.

    t_g / dt must lie within 1e-9 (relative) of a whole number of at least
    one: any other step count would read the features at a time other than
    t_g. (120 / 0.01 and 120 / 0.2 are whole numbers in floats.)
    """
    if not dt > 0:
        raise ConfigurationError("dt must be > 0")
    ratio = t_g / dt
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or abs(ratio - steps) > 1e-9 * ratio:
        raise ConfigurationError(f"t_g / dt = {ratio:.7g} is not a whole number of RK4 steps, "
                                 "at least 1")
    return int(steps)


def simulate(network: CascadeNetwork, init: dict, horizon: float, dt: float) -> KineticsTrace:
    """Integrate the cascade over [0, horizon] and record every grid point.

    init maps species to initial µM on top of the network's assay mix
    (unlisted species start at zero).
    """
    n_steps = step_count(horizon, dt)
    c0 = network.init_vector(init)
    trace, status, bad = _kernels.rk4_trace(c0, *network.compiled(), n_steps, dt)
    _raise_on_status(status, bad)
    return KineticsTrace(times=dt * np.arange(n_steps + 1), concentrations=trace,
                         species_names=list(network.species))


@dataclass(frozen=True)
class UnionKind:
    """Kind of a union network: its block kinds joined by "+"."""

    value: str


class CascadeUnion:
    """Disjoint union of cascade networks, integrated as one system.

    A row of its state holds the blocks' states side by side: block b owns
    species ``species_offsets[b]:species_offsets[b + 1]`` and reactions
    ``reaction_offsets[b]:reaction_offsets[b + 1]``. The kernel stacks the
    blocks' own ``compiled()`` arrays into one block-diagonal network and
    rescues a failing block with that block's arrays alone.
    """

    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.kind = UnionKind("+".join(net.kind.value for net in self.blocks))
        self.species_offsets = np.cumsum([0] + [len(net.species) for net in self.blocks])
        self.reaction_offsets = np.cumsum([0] + [len(net.steps) for net in self.blocks])

    def column(self, block: int, signal) -> tuple:
        """(column, rate) across the union of a block's species name or step index."""
        net = self.blocks[block]
        if isinstance(signal, str):
            return int(self.species_offsets[block]) + net.index(signal), False
        if not 0 <= signal < len(net.steps):
            raise KeyError(f"step {signal!r} not in {net.kind.value} network")
        return int(self.reaction_offsets[block]) + int(signal), True


@dataclass
class BatchResult:
    """Readout summaries for a batch of simulations.

    Each of the m observed signals y is a species concentration or one
    reaction's rate; per row and signal ([B, m] arrays) it keeps the values
    at t = 0 and at the horizon and, if integrated with sums, the sums over
    all grid points that the least-squares slope needs (else None). c_final
    holds the live species: each block's substrates and observed species.
    """

    c_final: np.ndarray
    y0: np.ndarray
    y_end: np.ndarray
    sum_y: np.ndarray | None
    sum_ty: np.ndarray | None
    n_steps: int
    dt: float

    def endpoint_delta(self) -> np.ndarray:
        return np.abs(self.y_end - self.y0)

    def slope(self) -> np.ndarray:
        """Least-squares slope of y(t) over the full grid, per simulation and signal."""
        if self.sum_y is None:
            raise ValueError("slope needs the running sums: integrate with sums=True")
        t_mean = 0.5 * self.dt * self.n_steps
        # sum of t_k^2 over k = 0..n_steps, closed form
        sum_t2 = self.dt ** 2 * self.n_steps * (self.n_steps + 1) * (2 * self.n_steps + 1) / 6.0
        ss_tt = sum_t2 - (self.n_steps + 1) * t_mean ** 2
        return (self.sum_ty - t_mean * self.sum_y) / ss_tt


def simulate_batch(network, init_matrix: np.ndarray, horizon: float, dt: float,
                   signals=None, sums=False) -> BatchResult:
    """Integrate many initial states of a network, summaries only.

    network is a CascadeUnion, or a CascadeNetwork as a one-block union.
    init_matrix is [B, n_species] with the blocks' species side by side in
    block order (use each block's init_vector to build them). signals lists
    (block, signal) pairs: the species whose concentration is observed, or
    the index of the step whose rate is (default: each block's first
    reporter species); sums keeps what ``BatchResult.slope`` reads. Integration
    stops at the first step in which a row fails; the IntegrationError names
    that step, the lowest-index row failing in it and that row's first failing cascade.
    """
    union = network if isinstance(network, CascadeUnion) else CascadeUnion([network])
    n_steps = step_count(horizon, dt)
    if signals is None:
        signals = [(b, net.reporter_species[0]) for b, net in enumerate(union.blocks)]
    columns = [union.column(b, signal) for b, signal in signals]
    C0 = np.ascontiguousarray(init_matrix, dtype=np.float64)
    c_final, y0, y_end, sum_y, sum_ty, status, bad = _kernels.rk4_batch(
        C0, [net.compiled() for net in union.blocks], n_steps, dt, columns, sums)
    for i, b in zip(*np.nonzero(status)):
        _raise_on_status(int(status[i, b]), int(bad[i, b]), sim=int(i),
                         cascade=union.blocks[b].kind.value)
    return BatchResult(c_final=c_final, y0=y0, y_end=y_end, sum_y=sum_y, sum_ty=sum_ty,
                       n_steps=n_steps, dt=dt)


def _raise_on_status(status, bad_step, sim=None, cascade=None):
    if status == _kernels.STATUS_NONFINITE:
        raise IntegrationError("integration diverged: non-finite state",
                               step=bad_step, sim=sim, cascade=cascade)
    if status == _kernels.STATUS_UNDERFLOW:
        raise IntegrationError(
            f"integration diverged: step halving exhausted after {_kernels.MAX_HALVINGS} levels",
            step=bad_step, sim=sim, cascade=cascade)


def conserved_moieties(network: CascadeNetwork) -> list:
    """Basis of the left null space of the effective stoichiometry.

    Each returned vector w satisfies w @ stoichiometry = 0, so w @ c(t)
    is constant along any exact trajectory. Computed by exact reduced
    row echelon form over rationals, scaled to integer entries.
    """
    from fractions import Fraction  # here, so that no command imports fractions and decimal
    M = network.effective_stoichiometry.T  # [n_rxn, n_species]
    n_rxn, n_sp = M.shape
    rows = [[Fraction(x).limit_denominator(10 ** 9) for x in M[i]] for i in range(n_rxn)]
    pivots = []
    r = 0
    for c in range(n_sp):
        piv = next((i for i in range(r, n_rxn) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n_rxn):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rxn:
            break
    free = [c for c in range(n_sp) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_sp
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        scale = 1
        for x in v:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
        basis.append(np.array([float(x * scale) for x in v]))
    return basis
