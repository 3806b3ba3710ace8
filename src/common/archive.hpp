// Versioned, endian-stable binary serialization for checkpoint/restore.
//
// persist::Archive is a bidirectional stream: the same `state_io` member
// function both saves and loads a structure, so the field list can never
// drift between the two directions.  Encoding rules, chosen so a checkpoint
// written on any host restores bit-identically on any other:
//
//   * integers and enums   -- fixed-width little-endian, regardless of host
//   * bool                 -- one byte, 0 or 1
//   * double               -- IEEE-754 bit pattern as a little-endian u64
//                             (round-trips NaN payloads and -0.0 exactly)
//   * strings / containers -- u64 element count, then elements in order
//
// section() interleaves 32-bit FNV-1a tags of structural labels into the
// stream; a load that drifts out of sync fails fast with the label of the
// section it expected instead of silently misinterpreting bytes.  All load
// errors throw PersistError.
#pragma once

#include <bit>
#include <cstring>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace msim::persist {

/// Thrown on any malformed, truncated, or mismatched checkpoint payload.
class PersistError : public std::runtime_error {
 public:
  explicit PersistError(const std::string& what) : std::runtime_error(what) {}
};

/// 32-bit FNV-1a of a structural label (used for section markers).
[[nodiscard]] constexpr std::uint32_t tag_hash(std::string_view tag) noexcept {
  std::uint32_t h = 0x811c9dc5u;
  for (const char c : tag) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x01000193u;
  }
  return h;
}

class Archive {
 public:
  /// An archive that serializes into an internal byte buffer (see bytes()).
  [[nodiscard]] static Archive saver() { return Archive(true, {}); }

  /// An archive that deserializes from `bytes`.
  [[nodiscard]] static Archive loader(std::vector<std::uint8_t> bytes) {
    return Archive(false, std::move(bytes));
  }

  [[nodiscard]] bool saving() const noexcept { return saving_; }

  /// The serialized payload (saving archives only).
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }

  /// Scalars: integers, enums, bool, double.
  template <typename T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void io(T& v) {
    if constexpr (std::is_enum_v<T>) {
      auto u = static_cast<std::underlying_type_t<T>>(v);
      io(u);
      v = static_cast<T>(u);
    } else if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t u = v ? 1 : 0;
      io(u);
      if (u > 1) throw PersistError("checkpoint: bool byte out of range");
      v = u != 0;
    } else if constexpr (std::is_floating_point_v<T>) {
      static_assert(sizeof(T) == 8, "only double is supported");
      auto u = std::bit_cast<std::uint64_t>(v);
      io(u);
      v = std::bit_cast<T>(u);
    } else {
      using U = std::make_unsigned_t<T>;
      auto u = static_cast<U>(v);
      if (saving_) {
        // The stream is little-endian; on a little-endian host that is the
        // in-memory representation, and one memcpy beats a per-byte loop by
        // an order of magnitude (in-memory region checkpoints for
        // mode=sampled serialize the whole cache hierarchy per region, so
        // scalar io is a measured hot path).
        if constexpr (std::endian::native == std::endian::little) {
          const std::size_t off = buf_.size();
          buf_.resize(off + sizeof(U));
          std::memcpy(buf_.data() + off, &u, sizeof(U));
        } else {
          for (std::size_t i = 0; i < sizeof(U); ++i) {
            buf_.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
          }
        }
      } else {
        if (sizeof(U) > buf_.size() - pos_) {
          throw PersistError("checkpoint: truncated stream (wanted byte " +
                             std::to_string(pos_ + sizeof(U)) + " of " +
                             std::to_string(buf_.size()) + ")");
        }
        if constexpr (std::endian::native == std::endian::little) {
          std::memcpy(&u, buf_.data() + pos_, sizeof(U));
          pos_ += sizeof(U);
        } else {
          u = 0;
          for (std::size_t i = 0; i < sizeof(U); ++i) {
            u |= static_cast<U>(static_cast<U>(buf_[pos_++]) << (8 * i));
          }
        }
      }
      v = static_cast<T>(u);
    }
  }

  void io(std::string& s) {
    std::uint64_t n = s.size();
    io(n);
    if (!saving_) s.resize(checked_count(n, 1));
    for (char& c : s) {
      auto b = static_cast<std::uint8_t>(c);
      io(b);
      c = static_cast<char>(b);
    }
  }

  /// Sequences of scalars (vector / deque / string elements handled above).
  template <typename T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void io(std::vector<T>& v) {
    io_sequence(v, [](Archive& ar, T& x) { ar.io(x); });
  }
  template <typename T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void io(std::deque<T>& v) {
    io_sequence(v, [](Archive& ar, T& x) { ar.io(x); });
  }

  /// Sequence with a per-element callback: `per(Archive&, Elem&)`.
  /// Works for any container with size()/resize() and iteration.
  template <typename Seq, typename Fn>
  void io_sequence(Seq& seq, Fn&& per) {
    std::uint64_t n = seq.size();
    io(n);
    if (!saving_) {
      seq.clear();
      seq.resize(checked_count(n, 1));
    }
    for (auto& e : seq) per(*this, e);
  }

  /// Fixed-capacity ring (common/ring.hpp), in the bytes io_sequence writes
  /// for a deque: the element count, then the elements oldest first.  A
  /// loaded count above the ring's capacity is rejected, naming `what`.
  template <typename FixedRing, typename Fn>
  void io_ring(FixedRing& ring, std::string_view what, Fn&& per) {
    std::uint64_t n = ring.size();
    io(n);
    if (saving_) {
      for (std::uint32_t i = 0; i < ring.size(); ++i) per(*this, ring[i]);
      return;
    }
    if (n > ring.capacity()) {
      throw PersistError("checkpoint: " + std::string(what) + " holds " +
                         std::to_string(n) + " entries but its capacity is " +
                         std::to_string(ring.capacity()));
    }
    ring.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename FixedRing::value_type v{};
      per(*this, v);
      ring.push_back(v);
    }
  }

  template <typename T, typename Fn>
  void io_optional(std::optional<T>& o, Fn&& per) {
    bool engaged = o.has_value();
    io(engaged);
    if (!saving_) o = engaged ? std::optional<T>(T{}) : std::nullopt;
    if (engaged) per(*this, *o);
  }

  /// Ordered map; keys and values streamed via callbacks in key order.
  template <typename K, typename V, typename Fn>
  void io_map(std::map<K, V>& m, Fn&& per_value) {
    std::uint64_t n = m.size();
    io(n);
    if (saving_) {
      for (auto& [k, v] : m) {
        K key = k;
        io(key);
        per_value(*this, v);
      }
    } else {
      m.clear();
      (void)checked_count(n, 1);
      for (std::uint64_t i = 0; i < n; ++i) {
        K key{};
        io(key);
        V value{};
        per_value(*this, value);
        m.emplace(key, std::move(value));
      }
    }
  }

  /// Writes (saving) or verifies (loading) a structural marker.  A mismatch
  /// means the stream is out of sync with the code reading it -- typically a
  /// format-version skew -- and loading must not continue.
  void section(std::string_view tag) {
    std::uint32_t h = tag_hash(tag);
    const std::uint32_t expected = h;
    io(h);
    if (!saving_ && h != expected) {
      throw PersistError("checkpoint: section marker mismatch at '" +
                         std::string(tag) +
                         "' (stream out of sync; see docs/CHECKPOINT.md)");
    }
  }

  /// Loading archives: asserts every byte was consumed.
  void expect_end() const {
    if (!saving_ && pos_ != buf_.size()) {
      throw PersistError("checkpoint: " + std::to_string(buf_.size() - pos_) +
                         " trailing byte(s) after final field");
    }
  }

 private:
  Archive(bool saving, std::vector<std::uint8_t> bytes)
      : buf_(std::move(bytes)), saving_(saving) {}

  /// Bounds a declared element count against the bytes actually remaining,
  /// so a corrupt length prefix cannot trigger a huge allocation.
  [[nodiscard]] std::size_t checked_count(std::uint64_t n,
                                          std::size_t min_elem_bytes) const {
    if (n > (buf_.size() - pos_) / min_elem_bytes + 1) {
      throw PersistError("checkpoint: declared element count " +
                         std::to_string(n) + " exceeds remaining stream");
    }
    return static_cast<std::size_t>(n);
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool saving_;
};

}  // namespace msim::persist

