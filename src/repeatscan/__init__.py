"""Behavioral simulator of an analog-CAM accelerator for DNA tandem-repeat
detection, with a cycle-accurate cost model verified against brute-force
string oracles."""

__version__ = "0.1.0"

from .acam import AcamArray, cell_matches, drive_for, encode_char, load_text
from .costmodel import (CostReport, CycleCounts, EnergyParams, TimingParams,
                        build_report, energy, geometry_for_text, latency)
from .detector import (detect_functional, oracle_max_tandem,
                       run_cycle_accurate, run_trace)
from .matchmem import MatchIndexMemory, Mode
from .pipeline import ScanRequest, ScanResult, make_request, scan
from .seqio import (DiseaseEntry, DnaSequence, Pattern, builtin_catalog,
                    classify, load_catalog, parse_pattern, parse_text)

__all__ = [
    "AcamArray", "CostReport", "CycleCounts", "DiseaseEntry", "DnaSequence",
    "EnergyParams", "MatchIndexMemory", "Mode", "Pattern", "ScanRequest",
    "ScanResult", "TimingParams", "build_report", "builtin_catalog",
    "cell_matches", "classify", "detect_functional", "drive_for",
    "encode_char", "energy", "geometry_for_text", "latency", "load_catalog",
    "load_text", "make_request", "oracle_max_tandem", "parse_pattern",
    "parse_text", "run_cycle_accurate", "run_trace", "scan",
]
