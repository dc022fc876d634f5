#pragma once
/// \file file.hpp
/// Checkpoint container: a length-prefixed, checksummed binary file holding
/// the full simulation state as tagged sections.
///
/// Layout (all integers little-endian):
///
///   [u32 magic "GLRK"] [u16 version] [u16 flags=0]
///   [u64 configDigest] [u64 simNow bits] [u64 nextSeq] [u64 executed]
///   [u32 sectionCount] [u32 reserved=0]
///   sectionCount x ( [u32 id] [u64 length] [length bytes] )
///   [u64 fnv1a-64 of every preceding byte]
///
/// The reader validates exactly like trace/reader.cpp: short or bad header,
/// unsupported version, truncated or overrunning section, duplicate section
/// id, checksum mismatch, and trailing bytes all throw std::runtime_error
/// naming the path and the defect. The writer is crash-safe: it assembles
/// the file beside the target (path + ".tmp"), fsyncs, then renames — a
/// crash mid-write leaves the previous checkpoint intact and at worst a
/// detectable temp file, never a silently-corrupt current one.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace glr::ckpt {

inline constexpr std::uint32_t kCheckpointMagic = 0x4B524C47;  // "GLRK"
inline constexpr std::uint16_t kCheckpointVersion = 6;

/// FNV-1a 64-bit over a byte range; also used for the config digest.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t n,
                                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/// One state section; ids are assigned by scenario_checkpoint.cpp.
struct Section {
  std::uint32_t id = 0;
  std::vector<unsigned char> bytes;
};

struct CheckpointFile {
  std::uint64_t configDigest = 0;
  double simNow = 0.0;
  std::uint64_t nextSeq = 0;
  std::uint64_t executed = 0;
  std::vector<Section> sections;

  /// Appends a section (ids must be unique; enforced on write and read).
  void addSection(std::uint32_t id, std::vector<unsigned char> bytes) {
    sections.push_back(Section{id, std::move(bytes)});
  }

  /// The section with `id`, or throws naming the missing id.
  [[nodiscard]] const Section& section(std::uint32_t id,
                                       const std::string& path) const;

  /// Serializes and atomically replaces `path` (tmp + fsync + rename).
  /// Throws std::runtime_error with path + errno on any I/O failure.
  void write(const std::string& path) const;

  /// Reads and fully validates `path`. Throws std::runtime_error on any
  /// structural defect (see file comment).
  [[nodiscard]] static CheckpointFile read(const std::string& path);
};

}  // namespace glr::ckpt
