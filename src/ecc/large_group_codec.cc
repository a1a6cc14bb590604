#include "ecc/large_group_codec.h"

#include <algorithm>
#include <stdexcept>

#include "common/thread_pool.h"
#include "ecc/gf65536.h"

namespace silica {

LargeGroupCodec::LargeGroupCodec(size_t info, size_t redundancy)
    : info_(info), redundancy_(redundancy) {
  if (info == 0 || redundancy == 0 || info + redundancy > 65536) {
    throw std::invalid_argument("LargeGroupCodec: bad group shape");
  }
}

uint16_t LargeGroupCodec::Coefficient(size_t redundancy_row, size_t info_col) const {
  // Cauchy: 1 / (x_r + y_c) with x_r = r, y_c = redundancy_ + c, all distinct.
  const auto x = static_cast<uint16_t>(redundancy_row);
  const auto y = static_cast<uint16_t>(redundancy_ + info_col);
  return Gf65536::Inv(static_cast<uint16_t>(x ^ y));
}

void LargeGroupCodec::EncodeAccumulate(
    size_t info_index, std::span<const uint16_t> shard,
    std::span<const std::span<uint16_t>> redundancy) const {
  if (info_index >= info_ || redundancy.size() != redundancy_) {
    throw std::invalid_argument("LargeGroupCodec::EncodeAccumulate: bad arguments");
  }
  for (size_t r = 0; r < redundancy_; ++r) {
    Gf65536::MulAccumulate(redundancy[r], shard, Coefficient(r, info_index));
  }
}

bool LargeGroupCodec::RecoverInfo(
    std::span<const std::span<uint16_t>> info, std::span<const size_t> missing_info,
    std::span<const size_t> redundancy_indices,
    std::span<const std::span<const uint16_t>> redundancy, ThreadPool* pool) const {
  const size_t m = missing_info.size();
  if (m == 0) {
    return true;
  }
  if (redundancy.size() != redundancy_indices.size() || redundancy.size() < m ||
      info.size() != info_) {
    return false;
  }
  const size_t len = info.empty() ? 0 : info[0].size();

  std::vector<uint8_t> is_missing(info_, 0);
  for (size_t idx : missing_info) {
    if (idx >= info_) {
      return false;
    }
    is_missing[idx] = 1;
  }

  // Syndromes: s_r = red_r - sum over known info of coeff * shard. Each syndrome
  // row only reads shared state and writes its own buffer, so rows fan out; the
  // O(m^3) Gauss-Jordan below stays serial (m is small and row ops are coupled).
  std::vector<std::vector<uint16_t>> syndromes(m, std::vector<uint16_t>(len, 0));
  ParallelFor(pool, m, [&](size_t e) {
    const size_t r = redundancy_indices[e];
    std::copy(redundancy[e].begin(), redundancy[e].end(), syndromes[e].begin());
    for (size_t c = 0; c < info_; ++c) {
      if (!is_missing[c]) {
        Gf65536::MulAccumulate(syndromes[e], info[c], Coefficient(r, c));
      }
    }
  });

  // Solve the m x m system A * missing = syndromes via Gauss-Jordan over GF(2^16),
  // where A[e][j] = Coefficient(redundancy_indices[e], missing_info[j]).
  std::vector<std::vector<uint16_t>> a(m, std::vector<uint16_t>(m));
  for (size_t e = 0; e < m; ++e) {
    for (size_t j = 0; j < m; ++j) {
      a[e][j] = Coefficient(redundancy_indices[e], missing_info[j]);
    }
  }
  for (size_t col = 0; col < m; ++col) {
    size_t pivot = col;
    while (pivot < m && a[pivot][col] == 0) {
      ++pivot;
    }
    if (pivot == m) {
      return false;  // cannot happen for distinct Cauchy rows; defensive
    }
    std::swap(a[pivot], a[col]);
    std::swap(syndromes[pivot], syndromes[col]);
    const uint16_t inv = Gf65536::Inv(a[col][col]);
    for (size_t j = 0; j < m; ++j) {
      a[col][j] = Gf65536::Mul(a[col][j], inv);
    }
    for (auto& w : syndromes[col]) {
      w = Gf65536::Mul(w, inv);
    }
    for (size_t e = 0; e < m; ++e) {
      if (e == col || a[e][col] == 0) {
        continue;
      }
      const uint16_t factor = a[e][col];
      for (size_t j = 0; j < m; ++j) {
        a[e][j] ^= Gf65536::Mul(factor, a[col][j]);
      }
      Gf65536::MulAccumulate(syndromes[e], syndromes[col], factor);
    }
  }

  for (size_t j = 0; j < m; ++j) {
    auto out = info[missing_info[j]];
    std::copy(syndromes[j].begin(), syndromes[j].end(), out.begin());
  }
  return true;
}

}  // namespace silica
