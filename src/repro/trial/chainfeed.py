"""Drive continuous RWE monitoring from on-chain trial events (Figure 4).

The clinical-trial contract emits ``PatientEnrolled``, ``OutcomeReported``,
and ``AdverseEvent`` events; the monitor node (Figure 3) surfaces them off
chain.  :class:`ChainTrialFeed` subscribes to those events and converts the
stream into :class:`SubjectOutcome` updates for an :class:`RWEMonitor` —
so the paper's "keep on monitoring the efficacy and possible side effects"
literally runs off the ledger's event stream.

Subgroup membership (genetic carrier status) is *not* on chain — it is
privacy-sensitive — so the feed takes a ``carrier_lookup`` callback that the
hosting site provides from its local genomics data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.chain.executor import ContractEvent
from repro.offchain.oracle import MonitorNode
from repro.trial.monitor import RWEMonitor, Signal
from repro.trial.simulation import SubjectOutcome

CarrierLookup = Callable[[str], bool]


@dataclass
class _PatientTrack:
    arm: str = ""
    site: str = ""
    enrolled: bool = False
    adverse: int = 0
    adverse_severity: int = 0
    reported: bool = False


class ChainTrialFeed:
    """Adapter: clinical-trial contract events -> RWE monitor updates.

    Time is measured in block heights (the chain's native clock): a signal
    "detected at height H" means every participant could have seen it then.
    """

    def __init__(
        self,
        monitor_node: MonitorNode,
        rwe_monitor: RWEMonitor,
        trial_id: str,
        primary_outcome: str,
        carrier_lookup: CarrierLookup,
    ):
        self.monitor_node = monitor_node
        self.rwe_monitor = rwe_monitor
        self.trial_id = trial_id
        self.primary_outcome = primary_outcome
        self.carrier_lookup = carrier_lookup
        self._patients: Dict[str, _PatientTrack] = {}
        self.signals_seen: List[Signal] = []
        monitor_node.on("PatientEnrolled", self._on_enrolled)
        monitor_node.on("AdverseEvent", self._on_adverse)
        monitor_node.on("OutcomeReported", self._on_outcome)

    # -- event handlers ----------------------------------------------------
    def _for_this_trial(self, event: ContractEvent) -> bool:
        return event.data.get("trial_id") == self.trial_id

    def _track(self, patient: str) -> _PatientTrack:
        return self._patients.setdefault(patient, _PatientTrack())

    def _on_enrolled(self, event: ContractEvent) -> None:
        if not self._for_this_trial(event):
            return
        track = self._track(event.data["patient"])
        track.arm = event.data.get("arm", "")
        track.site = event.data.get("site", "")
        track.enrolled = True

    def _on_adverse(self, event: ContractEvent) -> None:
        if not self._for_this_trial(event):
            return
        track = self._track(event.data["patient"])
        track.adverse = 1
        track.adverse_severity = max(
            track.adverse_severity, int(event.data.get("severity", 1))
        )
        # An adverse event without an outcome report still informs safety:
        # ingest immediately as a non-event observation if not yet reported.
        if track.enrolled and not track.reported:
            self._ingest(event.data["patient"], track, event.block_height, event_flag=0)
            track.reported = True

    def _on_outcome(self, event: ContractEvent) -> None:
        if not self._for_this_trial(event):
            return
        if event.data.get("outcome") != self.primary_outcome:
            return
        patient = event.data["patient"]
        track = self._track(patient)
        if not track.enrolled or track.reported:
            return
        event_flag = 1 if int(event.data.get("value_milli", 0)) > 0 else 0
        self._ingest(patient, track, event.block_height, event_flag)
        track.reported = True

    def _ingest(
        self, patient: str, track: _PatientTrack, height: int, event_flag: int
    ) -> None:
        outcome = SubjectOutcome(
            patient_pseudo_id=patient,
            site=track.site,
            arm=track.arm,
            is_carrier=self.carrier_lookup(patient),
            event=event_flag,
            event_day=max(0, height),
            adverse_event=track.adverse,
            adverse_severity=track.adverse_severity,
            report_day=max(0, height),
        )
        self.signals_seen.extend(self.rwe_monitor.ingest(outcome))

    # -- introspection -----------------------------------------------------
    @property
    def patients_tracked(self) -> int:
        return len(self._patients)
