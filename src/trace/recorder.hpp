#pragma once
/// \file recorder.hpp
/// Flight recorder: binary event records written by the simulation thread.
///
/// Agents and the message buffer call Recorder::record() at instrumentation
/// points (send, deliver, custody accept/refuse, drop, expiry, suspicion).
/// Each call appends one length-prefixed 32-byte record to a fixed batch of
/// 4,096 entries, and a full batch goes to the file in one write (format
/// spec in reader.hpp). Tracing is default-off: a null `trace::Recorder*` on
/// World costs the hot path exactly one branch per instrumentation point, so
/// all pinned goldens stay bit-identical and the zero-allocation pin holds.
/// With tracing on, record() copies into storage reserved at construction,
/// so it never allocates.
///
/// Lossless by construction: every record() reaches the batch and every
/// batch reaches the file, so the round-trip differential test rebuilds
/// delivery/drop/custody totals from the file that equal the live
/// ScenarioResult exactly. recordsWritten() is a pure function of the
/// simulated event sequence.
///
/// Crash safety: the header's record count stays ~0 until close() patches
/// it, so an unfinalized file is detectable. SIGINT/SIGTERM finalize it
/// (installSignalFinalize). An uncatchable SIGKILL loses at most the batch
/// not yet written (4,095 records) and leaves the ~0 header;
/// `trace_inspect recover` salvages the records written before it.

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/simulator.hpp"

namespace glr::trace {

/// Every event type, one entry each: X(enumerator, on-disk value, name,
/// the ScenarioResult counter the trace replays it into). Values are part
/// of the on-disk format, so the list is append-only. A new event type is
/// one entry here plus its record() call.
#define GLR_TRACE_EVENTS(X)                                                  \
  /* origin stamped a new message */                                         \
  X(kCreated, 1, "created", created)                                         \
  /* a copy left a node toward `peer` */                                     \
  X(kSend, 2, "send", glrDataSent)                                           \
  /* first copy reached the destination */                                   \
  X(kDelivered, 3, "delivered", delivered)                                   \
  /* a later copy reached the destination */                                 \
  X(kDuplicate, 4, "duplicate", duplicateDeliveries)                         \
  /* node accepted custody (ACK sent) */                                     \
  X(kCustodyAccept, 5, "custody-accept", glrCustodyAcksSent)                 \
  /* node refused custody (NACK sent) */                                     \
  X(kCustodyRefuse, 6, "custody-refuse", custodyRefusals)                    \
  /* buffer eviction (capacity pressure) */                                  \
  X(kDrop, 7, "drop", bufferEvictions)                                       \
  /* TTL expiry swept from a buffer */                                       \
  X(kExpiry, 8, "expiry", expiredDrops)                                      \
  /* custody-failure detector raised a fresh verdict */                      \
  X(kSuspicion, 9, "suspicion", glrSuspicionsRaised)

/// What happened.
enum class EventType : std::uint8_t {
#define GLR_TRACE_ENUMERATOR(name, value, text, counter) name = value,
  GLR_TRACE_EVENTS(GLR_TRACE_ENUMERATOR)
#undef GLR_TRACE_ENUMERATOR
};

/// One trace event: fixed 32 bytes, trivially copyable, written verbatim.
struct Record {
  double time = 0.0;       // sim time the event was recorded at
  std::int32_t node = -1;  // acting node (holder/origin/destination)
  std::int32_t peer = -1;  // counterpart (next hop, custodian, ...) or -1
  std::int32_t msgSrc = -1;
  std::int32_t msgSeq = -1;
  std::uint16_t aux = 0;  // event-specific: hop count, reason code
  std::uint8_t type = 0;  // EventType
  std::uint8_t flag = 0;  // dtn::TreeFlag of the copy (0 = none)
  std::uint32_t pad = 0;  // explicit so the on-disk bytes are deterministic
};
static_assert(sizeof(Record) == 32, "trace records are a fixed 32 bytes");
static_assert(std::is_trivially_copyable_v<Record>);

/// On-disk header, written at offset 0. `recordCount` is ~0 while the file
/// is open and patched to the true count on finalize, so a crash mid-run
/// leaves a detectably-truncated file.
struct FileHeader {
  std::uint32_t magic = 0x54524C47;  // "GLRT" little-endian
  std::uint16_t version = 1;
  std::uint16_t recordSize = sizeof(Record);
  std::uint64_t recordCount = ~std::uint64_t{0};
  std::uint64_t reserved = 0;
};
static_assert(sizeof(FileHeader) == 24);

/// The one writer of the trace format: the header with the ~0 count, then
/// `[u32 length][Record]` entries in batches of 4,096 per write, then on
/// finish() the true count and an fsync.
///
/// Signal safety: every call finish() makes on the file (pwrite, fsync) is
/// async-signal-safe, each write goes to the offset its entries belong at,
/// and the count of entries on disk advances only once their whole batch
/// is written. So finish() from a signal handler that interrupted append()
/// or a batch write on the same thread rewrites the pending batch in place
/// and leaves a finalized file holding every entry appended before the
/// signal.
class TraceWriter {
 public:
  /// Creates (truncates) `path` and writes the unfinalized header. Throws
  /// std::runtime_error naming the path and the OS error on failure.
  explicit TraceWriter(const std::string& path);
  /// Finishes, then closes the file. Only the destructor closes it, so a
  /// signal finalize never frees a descriptor another thread still writes.
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Appends one entry; writes the batch when it is full. Never allocates.
  void append(const Record& record) noexcept;

  /// Writes the rest, patches the header count and fsyncs. Returns 0, or
  /// the errno of the first failed call; after a failed write the header
  /// keeps its ~0 count, as after a crash. Later calls return 0.
  int finish() noexcept;

  /// Entries appended so far (== records in the file after finish()).
  [[nodiscard]] std::uint64_t appended() const { return appended_; }

 private:
  void writeBatch() noexcept;

  int fd_ = -1;
  int error_ = 0;  // errno of the first failed call
  bool finished_ = false;
  std::vector<unsigned char> batch_;  // entries [onDisk_, appended_)
  std::uint64_t appended_ = 0;
  std::uint64_t onDisk_ = 0;  // advanced only after a whole batch is written
};

class Recorder {
 public:
  /// Opens `path` for writing. Throws std::runtime_error if it cannot.
  Recorder(const sim::Simulator& sim, const std::string& path);
  ~Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Records one event stamped at the current sim time. Never allocates,
  /// never drops. Only the simulation thread calls it.
  void record(EventType type, std::int32_t node, std::int32_t peer,
              std::int32_t msgSrc, std::int32_t msgSeq, std::uint16_t aux = 0,
              std::uint8_t flag = 0) noexcept;

  /// Writes the last batch, patches the header's record count and fsyncs
  /// the file — after this the trace survives an immediate process death.
  /// A failure is reported on stderr, not thrown, because this also runs
  /// from the destructor. Idempotent.
  void close();

  /// Installs SIGINT/SIGTERM handlers (once, process-wide) that finalize
  /// every live Recorder as close() does and then re-raise the signal with
  /// its default action, so the process still dies with the interrupted
  /// status. A handler the host already installed is left alone.
  ///
  /// Sound for recorders the signaled thread owns (the single-scenario CLI
  /// case this exists for): TraceWriter's signal safety covers a record()
  /// the signal interrupted. A recorder owned by another running thread can
  /// race with the finalize; the file may then fail the strict reader, and
  /// `trace_inspect recover` salvages its intact prefix.
  static void installSignalFinalize();

  /// Events recorded so far (== records in the file after close()).
  /// Deterministic: a pure function of the simulated event sequence.
  [[nodiscard]] std::uint64_t recordsWritten() const {
    return writer_.appended();
  }

 private:
  const sim::Simulator& sim_;
  TraceWriter writer_;
};

}  // namespace glr::trace
