#pragma once
/// \file codec.hpp
/// Binary encode/decode primitives for the checkpoint layer.
///
/// Every serialized quantity goes through these two classes so the on-disk
/// byte layout is uniform (little-endian, fixed-width, doubles as IEEE-754
/// bit patterns — bit-identical round-trips, never printf/scanf rounding)
/// and every malformed read fails loudly with context instead of returning
/// garbage.
///
/// Encoder and Decoder share one *visit vocabulary* (the single-function
/// serialization idiom of cereal / Boost.Serialization): a checkpointed
/// component lists its state once, in a `template <class Ar> void
/// visit(Ar& ar)`, and the same body writes every field with an Encoder and
/// reads it back with a Decoder. Work only a restore does (rebuilding
/// indexes, validating cursors, dropping stale handles) sits under
/// `if constexpr (Ar::kLoading)`. Visits are defined in the component's .cpp
/// and explicitly instantiated for both archives.
///
/// The unordered-container visits additionally reproduce *hash table
/// iteration order*, which several tables expose to the simulation (e.g.
/// the neighbor table drives hello payload order, which drives LDTG
/// construction, which drives routing): libstdc++ keeps each bucket's
/// members contiguous in iteration order, so any reachable order is rebuilt
/// by rehashing to the saved bucket count and inserting in reverse of the
/// saved order — and the rebuilt order is then *verified* element by
/// element, so a standard library where that reasoning fails produces a
/// loud error at restore time, never silent divergence at run time.

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace glr::ckpt {

// Visits bind std::size_t fields straight to u64.
static_assert(std::is_same_v<std::size_t, std::uint64_t>);

/// Append-only byte sink. All integers little-endian fixed-width; doubles
/// are stored as their bit pattern so restore is bit-identical.
class Encoder {
 public:
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { putLe(v); }
  void u32(std::uint32_t v) { putLe(v); }
  void u64(std::uint64_t v) { putLe(v); }
  void i32(std::int32_t v) { putLe(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { putLe(static_cast<std::uint64_t>(v)); }
  void f64(double v) { putLe(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u64(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    out_.insert(out_.end(), p, p + n);
  }

  // ----------------------------------------------- visit vocabulary ---

  /// An element count; the decoder bounds it by `minBytesPer` (see
  /// Decoder::checkedSize).
  void count(std::size_t n, std::size_t /*minBytesPer*/) { u64(n); }

  /// A value fixed by the configuration: written here, compared against the
  /// live one on restore (a config-divergence tripwire).
  void expectEqual(std::uint64_t live, const char* /*what*/) { u64(live); }
  void expectEqual(std::int32_t live, const char* /*what*/) { i32(live); }
  void expectEqual(bool live, const char* /*what*/) { boolean(live); }

  /// A u8-backed enum; the decoder refuses values above `max`.
  template <class E>
  void enumeration(E v, E /*max*/, const char* /*what*/) {
    u8(static_cast<std::uint8_t>(v));
  }

  /// The full 256-bit generator state.
  void rng(const sim::Rng& r) {
    for (const std::uint64_t word : r.state()) u64(word);
  }

  /// A FIFO-ordered container: the count, then `elem(x)` per element.
  template <class Seq, class Elem>
  void sequence(Seq& s, std::size_t minBytesPer, Elem&& elem) {
    count(s.size(), minBytesPer);
    if constexpr (requires { s.begin(); }) {
      for (auto& x : s) elem(x);
    } else {
      for (std::size_t i = 0; i < s.size(); ++i) elem(s[i]);
    }
  }

  /// An unordered_map in iteration order (see file comment): size, bucket
  /// count, then `entry(key, value)` per element (on a copy of the key).
  template <class Map, class Entry>
  void unorderedMap(Map& m, Entry&& entry) {
    u64(m.size());
    u64(m.bucket_count());
    for (auto& [k, v] : m) {
      typename Map::key_type key = k;
      entry(key, v);
    }
  }

  /// Set variant of unorderedMap: `entry(key)` per element.
  template <class Set, class Entry>
  void unorderedSet(Set& s, Entry&& entry) {
    u64(s.size());
    u64(s.bucket_count());
    for (const auto& k : s) {
      typename Set::key_type key = k;
      entry(key);
    }
  }

  [[nodiscard]] const std::vector<unsigned char>& data() const { return out_; }
  [[nodiscard]] std::vector<unsigned char> take() { return std::move(out_); }

 private:
  template <class T>
  void putLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<unsigned char>(v >> (8 * i)));
    }
  }

  std::vector<unsigned char> out_;
};

/// Bounds-checked reader over a byte span. Every overrun or structural
/// mismatch throws std::runtime_error prefixed with the decoder's context
/// (file path + section name), mirroring trace/reader.cpp's discipline.
class Decoder {
 public:
  static constexpr bool kLoading = true;

  Decoder(const unsigned char* data, std::size_t size, std::string context)
      : data_(data), size_(size), context_(std::move(context)) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"checkpoint " + context_ + ": " + what +
                             " (at byte " + std::to_string(pos_) + ")"};
  }

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return getLe<std::uint16_t>(); }
  std::uint32_t u32() { return getLe<std::uint32_t>(); }
  std::uint64_t u64() { return getLe<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) fail("boolean field holds " + std::to_string(v));
    return v != 0;
  }

  std::string str() {
    const std::size_t n = checkedSize(u64(), 1);
    const unsigned char* p = take(n);
    return std::string{reinterpret_cast<const char*>(p), n};
  }

  void bytes(void* dst, std::size_t n) { std::memcpy(dst, take(n), n); }

  // ----------------------------------------------- visit vocabulary ---
  // Mirrors Encoder's, reading each field into its reference.

  void u8(std::uint8_t& v) { v = u8(); }
  void u16(std::uint16_t& v) { v = u16(); }
  void u32(std::uint32_t& v) { v = u32(); }
  void u64(std::uint64_t& v) { v = u64(); }
  void i32(std::int32_t& v) { v = i32(); }
  void i64(std::int64_t& v) { v = i64(); }
  void f64(double& v) { v = f64(); }
  void boolean(bool& v) { v = boolean(); }
  void str(std::string& v) { v = str(); }

  void count(std::size_t& n, std::size_t minBytesPer) {
    n = checkedSize(u64(), minBytesPer);
  }

  void expectEqual(std::uint64_t live, const char* what) {
    expectSame(u64(), live, what);
  }
  void expectEqual(std::int32_t live, const char* what) {
    expectSame(i32(), live, what);
  }
  void expectEqual(bool live, const char* what) {
    expectSame(boolean(), live, what);
  }

  template <class E>
  void enumeration(E& v, E max, const char* what) {
    const std::uint8_t raw = u8();
    if (raw > static_cast<std::uint8_t>(max)) fail(what);
    v = static_cast<E>(raw);
  }

  void rng(sim::Rng& r) {
    std::array<std::uint64_t, 4> words{};
    for (std::uint64_t& word : words) word = u64();
    r.setState(words);
  }

  /// Clears `s`, then appends and visits `count` default elements.
  template <class Seq, class Elem>
  void sequence(Seq& s, std::size_t minBytesPer, Elem&& elem) {
    std::size_t n = 0;
    count(n, minBytesPer);
    s.clear();
    for (std::size_t i = 0; i < n; ++i) elem(s.emplace_back());
  }

  /// Rebuilds an unordered_map with the exact saved iteration order,
  /// verified (see file comment).
  template <class Map, class Entry>
  void unorderedMap(Map& m, Entry&& entry) {
    const std::size_t n = checkedSize(u64(), 1);
    const auto buckets = static_cast<std::size_t>(u64());
    std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>>
        items(n);
    for (auto& [k, v] : items) entry(k, v);
    rebuild(m, buckets, items, "unordered map");
    std::size_t i = 0;
    for (const auto& kv : m) {
      if (!(kv.first == items[i++].first)) {
        fail("unordered map iteration order diverged after rebuild");
      }
    }
  }

  /// Set variant of unorderedMap.
  template <class Set, class Entry>
  void unorderedSet(Set& s, Entry&& entry) {
    const std::size_t n = checkedSize(u64(), 1);
    const auto buckets = static_cast<std::size_t>(u64());
    std::vector<typename Set::key_type> items(n);
    for (auto& k : items) entry(k);
    rebuild(s, buckets, items, "unordered set");
    std::size_t i = 0;
    for (const auto& k : s) {
      if (!(k == items[i++])) {
        fail("unordered set iteration order diverged after rebuild");
      }
    }
  }

  /// Validates a serialized element count against the bytes actually left:
  /// `n` elements of at least `minBytesPer` bytes each must fit. Catches
  /// corrupted counts before they turn into multi-gigabyte reserves.
  [[nodiscard]] std::size_t checkedSize(std::uint64_t n,
                                        std::size_t minBytesPer) {
    if (minBytesPer != 0 && n > remaining() / minBytesPer) {
      fail("count " + std::to_string(n) + " overruns section (" +
           std::to_string(remaining()) + " bytes left)");
    }
    if (n > size_) {
      fail("size field " + std::to_string(n) + " exceeds section size");
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  /// Restore code calls this after consuming a section: trailing bytes mean
  /// writer and reader disagree about the layout — refuse loudly.
  void expectEnd() const {
    if (pos_ != size_) {
      fail(std::to_string(size_ - pos_) + " trailing bytes");
    }
  }

  [[nodiscard]] const std::string& context() const { return context_; }

 private:
  template <class T>
  void expectSame(T saved, T live, const char* what) {
    if (saved != live) {
      fail(std::string{what} + " mismatch (snapshot " +
           std::to_string(saved) + ", live " + std::to_string(live) + ")");
    }
  }

  /// Refills `c` with `items` at exactly `buckets` buckets, inserting in
  /// reverse so each bucket's members come back in saved order.
  template <class Container, class Items>
  void rebuild(Container& c, std::size_t buckets, const Items& items,
               const char* what) {
    c.clear();
    if (c.bucket_count() != buckets) {
      // rehash() can neither shrink below the policy minimum nor reproduce
      // the never-inserted single-bucket state, so start from a fresh table
      // (bucket_count 1) and grow it to the saved count.
      c = Container{};
      if (buckets > 1) c.rehash(buckets);
    }
    for (auto it = items.rbegin(); it != items.rend(); ++it) c.insert(*it);
    if (c.size() != items.size()) {
      fail(std::string{what} + " holds duplicate keys");
    }
    if (c.bucket_count() != buckets) {
      fail(std::string{what} + " bucket count diverged after rebuild");
    }
  }

  const unsigned char* take(std::size_t n) {
    if (n > remaining()) {
      fail("truncated: need " + std::to_string(n) + " bytes, have " +
           std::to_string(remaining()));
    }
    const unsigned char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  template <class T>
  T getLe() {
    const unsigned char* p = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    }
    return v;
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string context_;
};

}  // namespace glr::ckpt
