// Flight-recorder exporters:
//
//   * pcapng -- one Enhanced Packet Block per event that carries wire
//     bytes, with an opt_comment naming the span key, event type, emitting
//     node, layer, and detail. The same probe appears once per hop it
//     traversed, which is the point: Wireshark shows the packet's whole
//     life, comments explain each sighting.
//   * Chrome trace-event JSON -- instant events on a (pid=trace,
//     tid=probe) grid, loadable in Perfetto / chrome://tracing. Events
//     without wire bytes (timeouts) appear here even though pcapng has
//     nothing to show for them.
//
// Both encoders are deterministic: byte ordering is explicit
// little-endian, timestamps are exact integer nanoseconds, and events are
// emitted in the order given -- so two equal event vectors always produce
// identical files. CI diffs a --workers 1 recording against --workers 8.
//
// Both render in place: a pcapng block is assembled in one reused buffer
// and written once, and the trace JSON is appended field by field
// (std::to_chars, util::json_escape_append) into storage of its final size
// or, for files, streamed out in chunks of whole events.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "ecnprobe/obs/flight.hpp"

namespace ecnprobe::obs {

/// Writes a pcapng section (SHB + one raw-IP IDB + EPBs) to `os`; returns
/// the number of packet blocks written. Events without wire bytes are
/// skipped (a timeout has no packet).
std::size_t write_pcapng(std::ostream& os, const std::vector<FlightEvent>& events);

bool write_pcapng_file(const std::string& path, const std::vector<FlightEvent>& events);

/// Chrome trace-event JSON ({"traceEvents": [...]}) covering every event,
/// wire bytes or not. Timestamps are microseconds with exact nanosecond
/// fractions. The document is sized exactly before it is rendered and
/// reserved once; std::logic_error if the rendering disagrees with the size.
std::string to_chrome_trace_json(const std::vector<FlightEvent>& events);

/// Writes `prefix`.pcapng and `prefix`.trace.json, the latter streamed (the
/// same bytes as to_chrome_trace_json, never whole in memory). Returns true
/// only once both files have been written and closed cleanly.
bool write_flight_files(const std::string& prefix, const std::vector<FlightEvent>& events);

}  // namespace ecnprobe::obs
