// The little-endian byte codec shared by every binary format: the SVGB
// command codec and command log (serve/session_command.h), the SVGF wire
// frames (serve/wire.h), the SVGL changelog (durability/changelog.h) and
// the SVGS snapshot (durability/snapshot.h).
//
// Writers append fixed-width little-endian fields to a std::string; floats
// and doubles travel as their IEEE-754 bit patterns, so every value
// round-trips bit-exactly (-0.0, denormals and NaN payloads included).
// ByteReader is the one decoding cursor: every read is bounds-checked, a
// failed read latches failed() and never touches memory past the buffer,
// and ReadCount() rejects a count that cannot fit in the bytes left before
// any caller sizes a container by it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace savg {

/// Appends the sizeof(T) bytes of `v`, least significant first.
template <typename T>
inline void PutLittleEndian(T v, std::string* out) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void PutU8(uint8_t v, std::string* out) { PutLittleEndian(v, out); }
inline void PutU32(uint32_t v, std::string* out) { PutLittleEndian(v, out); }
inline void PutU64(uint64_t v, std::string* out) { PutLittleEndian(v, out); }

inline void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

inline void PutF32(float v, std::string* out) {
  uint32_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "float must be 32-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits, out);
}

inline void PutF64(double v, std::string* out) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

/// Bounds-checked little-endian cursor over an encoded buffer.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* out) { return ReadLittleEndian(out); }
  bool ReadU32(uint32_t* out) { return ReadLittleEndian(out); }
  bool ReadU64(uint64_t* out) { return ReadLittleEndian(out); }

  bool ReadI32(int32_t* out) {
    uint32_t v = 0;
    if (!ReadU32(&v)) return false;
    *out = static_cast<int32_t>(v);
    return true;
  }

  bool ReadF32(float* out) {
    uint32_t bits = 0;
    if (!ReadU32(&bits)) return false;
    std::memcpy(out, &bits, sizeof(bits));
    return true;
  }

  bool ReadF64(double* out) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(bits));
    return true;
  }

  /// Consumes the next `count` bytes and points `*out` at them (no copy;
  /// the view lives as long as the underlying buffer).
  bool ReadBytes(size_t count, const char** out) {
    if (size_ - pos_ < count) return Fail();
    *out = data_ + pos_;
    pos_ += count;
    return true;
  }

  /// A u32 count with a remaining-bytes plausibility bound: each counted
  /// element occupies at least `min_bytes_each`, so a corrupt huge count
  /// fails here instead of in a giant allocation.
  bool ReadCount(uint32_t* out, size_t min_bytes_each) {
    if (!ReadU32(out)) return false;
    if (min_bytes_each > 0 &&
        static_cast<uint64_t>(*out) >
            static_cast<uint64_t>(size_ - pos_) / min_bytes_each) {
      return Fail();
    }
    return true;
  }

  bool failed() const { return failed_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  bool ReadLittleEndian(T* out) {
    if (size_ - pos_ < sizeof(T)) return Fail();
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    *out = v;
    return true;
  }

  bool Fail() {
    failed_ = true;
    return false;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace savg
