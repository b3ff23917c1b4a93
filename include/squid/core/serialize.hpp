// Snapshot and query-message save/load.
//
// A snapshot captures the overlay membership and every published element in
// a line-oriented text format (versioned header, length-prefixed strings,
// decimal 128-bit ids). Loading requires a freshly built system with the
// same keyword space and curve — the geometry is validated from the header,
// and routing state is rebuilt exactly after membership is restored.
//
// Query-protocol messages (core/messages.hpp) share the same text
// conventions: save_message/load_message round-trip every message type, and
// truncated or malformed input — hostile counts and string lengths
// included — fails loudly (std::invalid_argument), never by returning a
// half-read message or by attempting the allocation a count asks for.
//
// One writer per frame shape, templated on its sink, serves both encoding
// and byte accounting: run over the append sink it produces the frame's
// bytes; run over the count sink it adds up their lengths (decimal ids
// sized by digit counting, not formatting). The *_wire_size functions are
// that writer over the count sink, so a size can never drift from the
// bytes save_message writes.

#pragma once

#include <cstddef>
#include <iosfwd>

#include "squid/core/messages.hpp"
#include "squid/core/system.hpp"
#include "squid/core/update.hpp"

namespace squid::core {

/// Write a complete snapshot of `sys` (membership + elements) to `out`.
void save_snapshot(const SquidSystem& sys, std::ostream& out);

/// Restore a snapshot into `sys`, which must be freshly constructed (no
/// nodes, no data) with a keyword space and curve matching the snapshot's
/// geometry. Throws std::invalid_argument on format or geometry mismatch.
void load_snapshot(SquidSystem& sys, std::istream& in);

/// Write one query-protocol message (versioned header + type tag + fields).
/// The frame is built in memory and handed to `out` in one write; returns
/// its size in bytes.
std::size_t save_message(const msg::Message& message, std::ostream& out);

/// Read back a message written by save_message. Throws
/// std::invalid_argument on bad magic, unknown type tag, or truncation.
/// When `bytes_read` is non-null it receives the number of bytes the frame
/// occupied (0 if `in` cannot report stream positions).
msg::Message load_message(std::istream& in, std::size_t* bytes_read = nullptr);

/// Serialized size of `message` in bytes: save_message's writer run over
/// the count sink, never an estimate.
std::size_t wire_size(const msg::Message& message);

/// Wire size of one element as a Reply payload line (element encoding plus
/// its terminating newline).
std::size_t element_wire_size(const DataElement& element);

/// Wire size of a Reply frame built for accounting: canonical query id 0
/// (so byte counts never depend on live query-id digit lengths), complete,
/// carrying `count`, `elements` payload lines totalling `payload_bytes`,
/// and optionally an aggregate partial. The header is measured by the real
/// writer over the count sink; `payload_bytes` is added verbatim (callers
/// accumulate it via element_wire_size during the scan, avoiding a copy of
/// the elements).
std::size_t reply_wire_size(overlay::NodeId from, overlay::NodeId to,
                            std::uint64_t count, std::size_t elements,
                            std::size_t payload_bytes,
                            const AggregatePartial* aggregate = nullptr);

/// wire_size of the PublishRequest or RetractRequest frame (per `kind`)
/// carrying `element` with default bookkeeping ids (event 0, span -1),
/// sized from the fields without building the frame.
std::size_t update_wire_size(UpdateOp::Kind kind, std::uint64_t seq,
                             overlay::NodeId origin, overlay::NodeId to,
                             const DataElement& element);

} // namespace squid::core
