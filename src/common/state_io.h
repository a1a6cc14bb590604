// Binary state serialization for checkpoint/restore (DESIGN.md section 17).
//
// A checkpoint must restore *byte-identically*: every double crosses the
// boundary as its exact IEEE-754 bit pattern (no text round-trip), every
// integer as fixed-width little-endian, and the reader fails loudly (throws)
// on any truncation or type-tag mismatch instead of yielding garbage state.
// The format is deliberately dumb — a flat stream, no schema evolution —
// because a snapshot is only ever consumed by the binary that produced it.
//
// One field list per type. Every serialized type defines
//
//   template <class Ar> void Visit(Ar& ar);
//
// naming each field once, in wire order. StateWriter and StateReader share
// the field API below, so the same Visit saves and loads and the two
// directions cannot drift apart:
//   ar(a, b, ...)  each field by its C++ type: arithmetic values at their
//                  natural width (bool as one byte), fixed arrays and pairs
//                  element by element, types with a Visit through it, and
//                  sequences (vector, deque, set, string) as a Seq;
//   Seq            U64 length, then each element; optionally length-bounded;
//   Fixed          a Seq whose length must equal the container's current,
//                  config-derived size (one entry per drive, partition, ...);
//   Sorted         an unordered_map / unordered_set as a key-sorted Seq, so
//                  the bytes never depend on hash-table history;
//   Enum           a tag stored as one byte, range-checked on load;
//   Check          a fingerprint (config value, presence flag): written on
//                  save, compared on load.
// `Ar::kLoading` guards the few load-side follow-ups that have no save-side
// counterpart (re-deriving caches, resetting runtime-only handles). A whole
// object is saved with `StateWriter w; w(object);` and loaded the same way
// through a StateReader.
//
// Every load-side rejection is a std::runtime_error naming what failed:
// truncation, a length beyond the remaining bytes, a Check mismatch, an Enum
// tag past its last value, or a Seq/Fixed length outside its bounds.
#ifndef SILICA_COMMON_STATE_IO_H_
#define SILICA_COMMON_STATE_IO_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace silica {

// The field API shared by both directions. Derived supplies the direction:
// Scalar, Length and Elements, plus Enum, Check and Sorted.
template <class Derived>
class StateArchive {
 public:
  struct Element {
    template <class Ar, class T>
    void operator()(Ar& ar, T& value) const {
      ar(value);
    }
  };

  template <class... T>
  void operator()(T&... fields) {
    (Field(fields), ...);
  }

  template <class C, class Fn = Element>
  void Seq(C& c, Fn&& fn = Fn{}) {
    Seq(c, 0, SIZE_MAX, "", fn);
  }
  template <class C, class Fn = Element>
  void Seq(C& c, size_t min_len, size_t max_len, const char* what,
           Fn&& fn = Fn{}) {
    const uint64_t n = self().Length(c.size(), min_len, max_len, what);
    self().Elements(c, n, fn);
  }
  template <class C, class Fn = Element>
  void Fixed(C& c, const char* what, Fn&& fn = Fn{}) {
    Seq(c, c.size(), c.size(), what, fn);
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  template <class T>
  void Field(T& v) {
    using U = std::remove_const_t<T>;
    static_assert(!std::is_enum_v<U>, "serialize enums with Enum()");
    if constexpr (std::is_arithmetic_v<U>) {
      self().Scalar(v);
    } else if constexpr (std::is_array_v<U>) {
      for (auto& element : v) {
        Field(element);
      }
    } else if constexpr (requires { v.first; v.second; }) {
      Field(v.first);
      Field(v.second);
    } else if constexpr (requires(U& x, Derived& ar) { x.Visit(ar); }) {
      // Visit serves both directions, so it is non-const; the writer only
      // reads through it.
      const_cast<U&>(v).Visit(self());
    } else {
      Seq(v);
    }
  }
};

class StateWriter : public StateArchive<StateWriter> {
 public:
  static constexpr bool kLoading = false;

  template <class E>
  void Enum(const E& e, E /*last*/, const char* /*what*/) {
    Scalar(static_cast<uint8_t>(e));
  }
  template <class T>
  void Check(const T& value, const char* /*what*/) {
    Scalar(value);
  }
  template <class M>
  void Sorted(M& m) {
    std::vector<typename M::key_type> keys;
    keys.reserve(m.size());
    for (const auto& item : m) {
      if constexpr (requires { typename M::mapped_type; }) {
        keys.push_back(item.first);
      } else {
        keys.push_back(item);
      }
    }
    std::sort(keys.begin(), keys.end());
    Scalar(static_cast<uint64_t>(keys.size()));
    for (const auto& key : keys) {
      Scalar(key);
      if constexpr (requires { typename M::mapped_type; }) {
        (*this)(m.find(key)->second);
      }
    }
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  friend class StateArchive<StateWriter>;

  template <class T>
  void Scalar(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      bytes_.push_back(v ? 1 : 0);
    } else {
      const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
      bytes_.insert(bytes_.end(), p, p + sizeof(v));
    }
  }
  uint64_t Length(size_t n, size_t /*min*/, size_t /*max*/,
                  const char* /*what*/) {
    Scalar(static_cast<uint64_t>(n));
    return n;
  }
  template <class C, class Fn>
  void Elements(C& c, uint64_t /*n*/, Fn& fn) {
    for (auto& element : c) {
      fn(*this, element);
    }
  }

  std::vector<uint8_t> bytes_;
};

class StateReader : public StateArchive<StateReader> {
 public:
  static constexpr bool kLoading = true;

  explicit StateReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  template <class E>
  void Enum(E& e, E last, const char* what) {
    uint8_t tag = 0;
    Scalar(tag);
    if (tag > static_cast<uint8_t>(last)) {
      throw std::runtime_error(what);
    }
    e = static_cast<E>(tag);
  }
  template <class T>
  void Check(const T& expected, const char* what) {
    T got{};
    Scalar(got);
    if (got != expected) {
      throw std::runtime_error(what);
    }
  }
  template <class M>
  void Sorted(M& m) {
    const uint64_t n = Len();
    m.clear();
    m.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      typename M::key_type key{};
      Scalar(key);
      if constexpr (requires { typename M::mapped_type; }) {
        (*this)(m[key]);
      } else {
        m.insert(key);
      }
    }
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  friend class StateArchive<StateReader>;

  template <class T>
  void Scalar(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      uint8_t b = 0;
      Scalar(b);
      v = b != 0;
    } else {
      if (bytes_.size() - pos_ < sizeof(v)) {
        throw std::runtime_error("StateReader: truncated snapshot");
      }
      std::memcpy(&v, bytes_.data() + pos_, sizeof(v));
      pos_ += sizeof(v);
    }
  }
  // Element count of a serialized sequence, bounds-checked against the
  // remaining bytes so a corrupt length cannot drive a huge resize.
  uint64_t Len() {
    uint64_t n = 0;
    Scalar(n);
    if (n > bytes_.size() - pos_) {
      throw std::runtime_error("StateReader: sequence length exceeds buffer");
    }
    return n;
  }
  uint64_t Length(size_t /*n*/, size_t min_len, size_t max_len,
                  const char* what) {
    const uint64_t n = Len();
    if (n < min_len || n > max_len) {
      throw std::runtime_error(what);
    }
    return n;
  }
  // Resizable containers load in place, so elements keep the runtime-only
  // state their Visit leaves out (ids, telemetry handles); sets are refilled
  // in saved order.
  template <class C, class Fn>
  void Elements(C& c, uint64_t n, Fn& fn) {
    if constexpr (requires { c.resize(n); }) {
      c.resize(n);
      for (auto& element : c) {
        fn(*this, element);
      }
    } else {
      c.clear();
      for (uint64_t i = 0; i < n; ++i) {
        typename C::value_type element{};
        fn(*this, element);
        c.insert(c.end(), std::move(element));
      }
    }
  }

  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

}  // namespace silica

#endif  // SILICA_COMMON_STATE_IO_H_
