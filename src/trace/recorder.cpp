#include "trace/recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace glr::trace {

namespace {

constexpr std::uint32_t kLength = sizeof(Record);
constexpr std::size_t kEntryBytes = sizeof(kLength) + sizeof(Record);
constexpr std::size_t kBatchEntries = 4096;

off_t entryOffset(std::uint64_t index) {
  return static_cast<off_t>(sizeof(FileHeader) + index * kEntryBytes);
}

// Writes all `n` bytes at `offset`; false (errno set) on failure.
bool pwriteAll(int fd, const void* data, std::size_t n, off_t offset) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t w = ::pwrite(fd, p, n, offset);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
    offset += w;
  }
  return true;
}

// Live recorders, for the signal finalizer. Lock-free fixed slots: a signal
// handler cannot take a mutex the interrupted thread might hold.
constexpr std::size_t kMaxLiveRecorders = 32;
std::atomic<Recorder*> liveRecorders[kMaxLiveRecorders];

void registerRecorder(Recorder* r) {
  for (auto& slot : liveRecorders) {
    Recorder* expected = nullptr;
    if (slot.compare_exchange_strong(expected, r)) return;
  }
  // More than kMaxLiveRecorders live at once: this one simply is not
  // signal-finalized (its SIGKILL-equivalent truncation path still holds).
}

void deregisterRecorder(Recorder* r) {
  for (auto& slot : liveRecorders) {
    Recorder* expected = r;
    if (slot.compare_exchange_strong(expected, nullptr)) return;
  }
}

void finalizeAndReraise(int sig) {
  for (auto& slot : liveRecorders) {
    // Claim the slot first so a close() racing in cannot double-finalize.
    if (Recorder* r = slot.exchange(nullptr)) r->close();
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path)
    : batch_(kBatchEntries * kEntryBytes) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  const FileHeader header;  // recordCount stays ~0 until finish()
  if (fd_ < 0 || !pwriteAll(fd_, &header, sizeof(header), 0)) {
    const int err = errno;
    if (fd_ >= 0) ::close(fd_);
    throw std::runtime_error("trace: cannot open '" + path +
                             "' for writing: " + std::strerror(err));
  }
}

TraceWriter::~TraceWriter() {
  (void)finish();
  ::close(fd_);
}

void TraceWriter::append(const Record& record) noexcept {
  unsigned char* entry = batch_.data() + (appended_ - onDisk_) * kEntryBytes;
  std::memcpy(entry, &kLength, sizeof(kLength));
  std::memcpy(entry + sizeof(kLength), &record, sizeof(Record));
  // A signal handler on this thread must see the entry before the count.
  std::atomic_signal_fence(std::memory_order_release);
  if (++appended_ - onDisk_ == kBatchEntries) writeBatch();
}

void TraceWriter::writeBatch() noexcept {
  // Entries [onDisk_, appended_) go to the offset they belong at, so a
  // finish() that interrupted this write rewrites the same bytes in place.
  if (error_ == 0 &&
      !pwriteAll(fd_, batch_.data(), (appended_ - onDisk_) * kEntryBytes,
                 entryOffset(onDisk_))) {
    error_ = errno;
  }
  std::atomic_signal_fence(std::memory_order_release);
  onDisk_ = appended_;
}

int TraceWriter::finish() noexcept {
  if (finished_) return 0;
  finished_ = true;
  writeBatch();
  if (error_ == 0) {
    FileHeader header;
    header.recordCount = onDisk_;
    if (!pwriteAll(fd_, &header, sizeof(header), 0) || ::fsync(fd_) != 0) {
      error_ = errno;
    }
  }
  return error_;
}

void Recorder::installSignalFinalize() {
  static const bool installed = [] {
    for (const int sig : {SIGINT, SIGTERM}) {
      struct sigaction current{};
      if (::sigaction(sig, nullptr, &current) != 0) continue;
      // Respect a handler the host installed; only replace the default
      // die-without-finalizing action.
      if (current.sa_handler != SIG_DFL) continue;
      struct sigaction action{};
      action.sa_handler = &finalizeAndReraise;
      ::sigemptyset(&action.sa_mask);
      ::sigaction(sig, &action, nullptr);
    }
    return true;
  }();
  (void)installed;
}

Recorder::Recorder(const sim::Simulator& sim, const std::string& path)
    : sim_(sim), writer_(path) {
  registerRecorder(this);
}

Recorder::~Recorder() { close(); }

void Recorder::record(EventType type, std::int32_t node, std::int32_t peer,
                      std::int32_t msgSrc, std::int32_t msgSeq,
                      std::uint16_t aux, std::uint8_t flag) noexcept {
  writer_.append(Record{.time = sim_.now(),
                        .node = node,
                        .peer = peer,
                        .msgSrc = msgSrc,
                        .msgSeq = msgSeq,
                        .aux = aux,
                        .type = static_cast<std::uint8_t>(type),
                        .flag = flag});
}

void Recorder::close() {
  // Deregister first: the signal finalizer never enters a close() that is
  // already finishing this recorder.
  deregisterRecorder(this);
  if (const int err = writer_.finish()) {
    std::fprintf(stderr, "trace: finalize failed: %s\n", std::strerror(err));
  }
}

}  // namespace glr::trace
