#include "media/platter.h"

#include <cstring>
#include <stdexcept>

#include "common/crc.h"

namespace silica {
namespace {

void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

bool ReadU64(std::span<const uint8_t> bytes, size_t& cursor, uint64_t& out) {
  if (cursor + 8 > bytes.size()) {
    return false;
  }
  out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(bytes[cursor + static_cast<size_t>(i)]) << (8 * i);
  }
  cursor += 8;
  return true;
}

}  // namespace

std::vector<uint8_t> PlatterHeader::Serialize() const {
  std::vector<uint8_t> body;
  AppendU64(body, platter_id);
  AppendU64(body, files.size());
  for (const auto& f : files) {
    AppendU64(body, f.file_id);
    AppendU64(body, f.name.size());
    body.insert(body.end(), f.name.begin(), f.name.end());
    AppendU64(body, f.start_sector_index);
    AppendU64(body, f.size_bytes);
  }
  std::vector<uint8_t> out;
  AppendU64(out, body.size());
  out.insert(out.end(), body.begin(), body.end());
  AppendU64(out, Crc64(body));
  return out;
}

std::optional<PlatterHeader> PlatterHeader::Parse(std::span<const uint8_t> bytes) {
  size_t cursor = 0;
  uint64_t body_len = 0;
  if (!ReadU64(bytes, cursor, body_len) || cursor + body_len + 8 > bytes.size()) {
    return std::nullopt;
  }
  const std::span<const uint8_t> body = bytes.subspan(cursor, body_len);
  size_t crc_cursor = cursor + body_len;
  uint64_t stored_crc = 0;
  if (!ReadU64(bytes, crc_cursor, stored_crc) || Crc64(body) != stored_crc) {
    return std::nullopt;
  }

  PlatterHeader header;
  size_t b = 0;
  uint64_t file_count = 0;
  if (!ReadU64(body, b, header.platter_id) || !ReadU64(body, b, file_count)) {
    return std::nullopt;
  }
  // Every entry encodes at least four u64 fields, so a count the remaining body
  // cannot hold is corrupt; rejecting it also bounds the reserve below.
  constexpr uint64_t kMinEntryBytes = 32;
  if (file_count > (body.size() - b) / kMinEntryBytes) {
    return std::nullopt;
  }
  header.files.reserve(file_count);
  for (uint64_t i = 0; i < file_count; ++i) {
    PlatterFileEntry entry;
    uint64_t name_len = 0;
    if (!ReadU64(body, b, entry.file_id) || !ReadU64(body, b, name_len) ||
        b + name_len > body.size()) {
      return std::nullopt;
    }
    entry.name.assign(reinterpret_cast<const char*>(body.data() + b), name_len);
    b += name_len;
    if (!ReadU64(body, b, entry.start_sector_index) ||
        !ReadU64(body, b, entry.size_bytes)) {
      return std::nullopt;
    }
    header.files.push_back(std::move(entry));
  }
  return header;
}

GlassPlatter::GlassPlatter(MediaGeometry geometry, uint64_t platter_id)
    : geometry_(geometry),
      platter_id_(platter_id),
      sectors_(static_cast<size_t>(geometry_.tracks_per_platter()) *
               static_cast<size_t>(geometry_.sectors_per_track())) {}

size_t GlassPlatter::FlatIndex(SectorAddress address) const {
  if (address.track < 0 || address.track >= geometry_.tracks_per_platter() ||
      address.sector < 0 || address.sector >= geometry_.sectors_per_track()) {
    throw std::out_of_range("GlassPlatter: sector address out of range");
  }
  return static_cast<size_t>(address.track) *
             static_cast<size_t>(geometry_.sectors_per_track()) +
         static_cast<size_t>(address.sector);
}

void GlassPlatter::WriteSector(SectorAddress address, std::vector<uint16_t> symbols) {
  if (sealed_) {
    throw std::logic_error("GlassPlatter: platter is sealed (air gap)");
  }
  auto& slot = sectors_[FlatIndex(address)];
  if (!slot.empty()) {
    throw std::logic_error("GlassPlatter: sector already written (WORM)");
  }
  if (symbols.size() != static_cast<size_t>(geometry_.voxels_per_sector())) {
    throw std::invalid_argument("GlassPlatter: wrong voxel count for sector");
  }
  slot = std::move(symbols);
}

bool GlassPlatter::IsWritten(SectorAddress address) const {
  return !sectors_[FlatIndex(address)].empty();
}

std::span<const uint16_t> GlassPlatter::SectorSymbols(SectorAddress address) const {
  const auto& slot = sectors_[FlatIndex(address)];
  if (slot.empty()) {
    throw std::logic_error("GlassPlatter: reading unwritten sector");
  }
  return slot;
}

void GlassPlatter::SetHeader(PlatterHeader header) {
  if (sealed_) {
    throw std::logic_error("GlassPlatter: platter is sealed (air gap)");
  }
  header_ = std::move(header);
}

size_t GlassPlatter::Erode(SectorAddress address,
                           std::span<const size_t> voxel_indices) {
  auto& slot = sectors_[FlatIndex(address)];
  if (slot.empty()) {
    return 0;  // nothing written here; nothing to decay
  }
  size_t erased = 0;
  for (const size_t v : voxel_indices) {
    if (v >= slot.size()) {
      throw std::out_of_range("GlassPlatter: eroded voxel index out of range");
    }
    if (slot[v] != kMissingVoxel) {
      slot[v] = kMissingVoxel;
      ++erased;
    }
  }
  return erased;
}

double GlassPlatter::FillFraction() const {
  size_t written = 0;
  for (const auto& s : sectors_) {
    if (!s.empty()) {
      ++written;
    }
  }
  return sectors_.empty() ? 0.0
                          : static_cast<double>(written) /
                                static_cast<double>(sectors_.size());
}

}  // namespace silica
